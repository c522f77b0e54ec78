"""The benchmark tracer's patch table against the package.

``perfbench/tracing.py`` wraps library functions by name where their
callers look them up. ``install`` fails when a patched name is gone from
the package, and ``uninstall`` must put every original back, so a traced
run leaves the package as it found it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from combatkit import runner
from combatkit.arena import load_task_configs

pytest.importorskip("numpy")  # install() patches combatkit.loss

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_uninstall_restores_every_patched_name(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        originals = {}
        for owner, attr, original in tracer._undo:
            originals.setdefault((owner, attr), original)
        assert len(originals) > 1
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_a_traced_episode_records_one_arena_step_per_cycle_and_the_warm_up(tracing):
    task = load_task_configs()[1]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        report, _ = runner.run_episode(task, runner.make_policy("scripted", task, 0))
    finally:
        tracer.uninstall()
    assert report.decision_cycles > 1
    steps = list(tracer.name).count(tracer.names.index("arena.step"))
    assert steps == report.decision_cycles + 1
