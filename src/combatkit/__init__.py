"""Desk-scale toolkit for combat imitation learning around a vision-language policy.

The package covers the full mechanism chain except the neural model
itself: input tracking and frame alignment, three-stage action-of-thought
dataset construction, the action-weighted loss with gradient checking,
truncated streaming decode, a pause-infer-act execution loop against a
deterministic combat arena, and a combat-understanding benchmark.

Import each name from the module that defines it, e.g.
``from combatkit.runner import run_suite``; the package root holds only
``__version__``. Only ``combatkit.loss`` (and the ``loss check`` verb,
which loads it when it runs) needs numpy.
"""

__version__ = "0.1.0"
