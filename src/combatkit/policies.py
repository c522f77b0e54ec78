"""Policies that answer observation frames with serialized action streams.

Every policy speaks the stage-3 wire format: an action clause, the
truncation sentinel, an explanation, then end-of-sequence. The scripted
policy is a deterministic rule table over the latest frame; the replay
policy feeds a recorded dataset back; the random policy is the
uniform-choice baseline.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Sequence

from .actions import (
    ActionCategory,
    ActionEvent,
    ActionSet,
    render_action,
    render_explanation,
)
from .aot import AoTRecord, serialize_stage3
from .arena import ObservationFrame
from .errors import ObservationSchemaError, ReplayExhausted

__all__ = ["Policy", "ScriptedPolicy", "ReplayPolicy", "RandomPolicy"]

class Policy:
    """Base class: one ``observe`` call per decision cycle."""

    def __init__(self):
        self.call_count = 0

    def observe(self, frames: Sequence[ObservationFrame]) -> tuple[str, ...]:
        """The answer's stage-3 tokens, ready for ``decode``."""
        if not frames:
            raise ObservationSchemaError("observe needs at least one frame")
        self.call_count += 1
        return self._tokens(frames)

    def _tokens(self, frames: Sequence[ObservationFrame]) -> tuple[str, ...]:
        raise NotImplementedError


# Bound on the serialization memo; far above the distinct sets a policy
# answers with (seven scripted sets, a few dozen random ones, per mode).
_SERIALIZE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_SERIALIZE_CACHE_SIZE)
def _serialize(actions: ActionSet, game_mode: str | None) -> tuple[str, ...]:
    """The stage-3 tokens of one answer: action clause, sentinel, explanation.

    ``game_mode`` picks the mode-specific wording ("SSDT" blocks where
    "BMW" dodges); None gives the mode-neutral text.
    """
    clause = render_action(actions)
    context = None if game_mode is None else {"game_mode": game_mode}
    explanation = render_explanation(actions, context) or clause
    return tuple(serialize_stage3(clause, explanation).split())


# The scripted rule table's thresholds: health fraction below which it
# heals, attack and sprint distances in metres, and how soon before a
# strike lands it dodges.
_LOW_HP = 0.3
_ATTACK_RANGE = 2.2
_SPRINT_RANGE = 6.0
_DODGE_WINDOW_MS = 400

# The scripted rule table's answers, built once: action sets are immutable.
_HEAL_BACK_OFF = ActionSet.of(
    ActionEvent.tap(ActionCategory.HEAL), ActionEvent.hold(ActionCategory.MOVE_BACK, 1.0)
)
_DODGE = ActionSet.of(ActionEvent.tap(ActionCategory.DODGE))
_COMBO = ActionSet.of(
    ActionEvent.tap(ActionCategory.IMMOBILIZE), ActionEvent.tap(ActionCategory.LIGHT_ATTACK)
)
_LIGHT = ActionSet.of(ActionEvent.tap(ActionCategory.LIGHT_ATTACK))
_STEP_IN = ActionSet.of(ActionEvent.hold(ActionCategory.MOVE_FWD, 0.25))
_SPRINT_IN = ActionSet.of(
    ActionEvent.hold(ActionCategory.MOVE_FWD, 0.4), ActionEvent.hold(ActionCategory.SPRINT, 0.4)
)
_HEAVY = ActionSet.of(ActionEvent.hold(ActionCategory.HEAVY_ATTACK, 1.0))


class ScriptedPolicy(Policy):
    """Deterministic rule table over the most recent frame.

    Rules, first match wins: heal (backing off) when health is low and
    charges remain; dodge or block a strike about to land; open with the
    immobilize-plus-light-attack combo when the skill is ready in range;
    otherwise attack, closing distance first when out of range and
    keeping actions short while a far-off strike winds up.
    """

    def __init__(self, game_mode: str = "BMW"):
        super().__init__()
        self.game_mode = game_mode.upper()

    def decide(self, obs: ObservationFrame) -> ActionSet:
        if obs.player_hp < _LOW_HP and obs.heal_charges > 0:
            return _HEAL_BACK_OFF
        telegraph = obs.enemy_telegraph
        remaining = -1 if telegraph is None else telegraph.remaining_ms
        if 0 <= remaining <= _DODGE_WINDOW_MS:
            return _DODGE
        px, py = obs.player_pos
        ex, ey = obs.enemy_pos
        distance = math.hypot(ex - px, ey - py)
        in_range = distance <= _ATTACK_RANGE
        stunned_ms = obs.enemy_stunned_ms
        if obs.immobilize_ready and stunned_ms <= 0 and in_range:
            return _COMBO
        if remaining > _DODGE_WINDOW_MS:
            # strike still winding up: stay on short actions so the next
            # decision lands inside the dodge window
            return _LIGHT if in_range else _STEP_IN
        # approach commitments stay short: a telegraph may have started
        # just after the sampled frame, and the strike must not land
        # before the next decision can react
        if distance > _SPRINT_RANGE:
            return _SPRINT_IN
        if not in_range:
            return _STEP_IN
        if stunned_ms > 0:
            return _HEAVY
        return _LIGHT

    def _tokens(self, frames: Sequence[ObservationFrame]) -> tuple[str, ...]:
        return _serialize(self.decide(frames[-1]), self.game_mode)


class ReplayPolicy(Policy):
    """Feed a recorded dataset's serializations back, one per cycle."""

    def __init__(self, records: Sequence[AoTRecord]):
        super().__init__()
        if not records:
            raise ReplayExhausted("replay needs at least one record")
        self._records = list(records)
        self._cursor = 0

    def _tokens(self, frames: Sequence[ObservationFrame]) -> tuple[str, ...]:
        if self._cursor >= len(self._records):
            raise ReplayExhausted(f"replay dataset exhausted after {len(self._records)} records")
        record = self._records[self._cursor]
        self._cursor += 1
        return tuple(record.serialized.split())


# The random policy's hold durations in seconds, and its whole answer
# space built once, one entry per category in declaration order: a
# tap-only category's answer, or a hold-capable one's answers per hold
# duration. Drawing an entry, then an answer for a hold, consumes the
# generator exactly as drawing a category, then a duration, would.
_HOLD_CHOICES = (0.25, 0.5, 1.0)
_RANDOM_ANSWERS = tuple(
    (None, tuple(_serialize(ActionSet.of(ActionEvent.hold(c, s)), None) for s in _HOLD_CHOICES))
    if c.hold_capable
    else (_serialize(ActionSet.of(ActionEvent.tap(c)), None), None)
    for c in ActionCategory
)


class RandomPolicy(Policy):
    """Uniform-random single action per cycle; the comparison baseline."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self._rng = random.Random(seed)

    def _tokens(self, frames: Sequence[ObservationFrame]) -> tuple[str, ...]:
        tap, holds = self._rng.choice(_RANDOM_ANSWERS)
        return tap if holds is None else self._rng.choice(holds)
