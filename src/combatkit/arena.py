"""Deterministic combat arena: state, tick engine, observation, tasks.

The arena is a small two-actor duel on a flat plane. The enemy runs a
fixed phase loop (idle, telegraph, strike, recovery) whose durations and
power come from the task config; the player acts through the ten-action
vocabulary. Everything advances on a fixed tick, all randomness flows
from one seeded generator, and observations are rendered at a fixed
8-frames-per-second cadence; the runner keeps every frame and samples
3 of the last 9 at each decision.

Numbers not pinned by the task grid (speeds, ranges, cast times, damage
scaling) are invented constants, kept on ``ArenaConfig`` and in the
versioned task file.
"""

from __future__ import annotations

import functools
import math
import random
from enum import Enum
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .actions import ActionCategory, ActionMode, ActionSet
from .errors import ConfigError, InsufficientHistory, ParseError
from .rows import read_json, typed_field

__all__ = [
    "GameMode",
    "Difficulty",
    "PlayerStatus",
    "Telegraph",
    "ObservationFrame",
    "ArenaConfig",
    "TaskConfig",
    "ArenaState",
    "load_task_configs",
    "iter_tasks",
    "new_arena",
    "cycle_ms",
    "step",
    "render_observation",
    "sample_frames",
    "FRAME_SAMPLE_WINDOW",
    "FRAME_SAMPLE_OFFSETS",
]


class GameMode(Enum):
    BMW = "BMW"
    SSDT = "SSDT"


class Difficulty(Enum):
    EASY = "easy"
    MIDDLE = "middle"
    HARD = "hard"
    VERY_HARD = "very_hard"


class PlayerStatus(Enum):
    NORMAL = "normal"
    BURNING = "burning"


class Telegraph(NamedTuple):
    kind: str
    remaining_ms: int


class ObservationFrame(NamedTuple):
    """One rendered snapshot of the duel, health normalized to [0, 1]."""

    t_ms: int
    player_hp: float
    enemy_hp: float
    player_pos: tuple[float, float]
    enemy_pos: tuple[float, float]
    enemy_telegraph: Telegraph | None
    player_status: PlayerStatus
    heal_charges: int
    immobilize_ready: bool
    enemy_stunned_ms: int

    def to_payload(self) -> dict:
        return {
            "t_ms": self.t_ms,
            "player_hp": round(self.player_hp, 6),
            "enemy_hp": round(self.enemy_hp, 6),
            "player_pos": [round(self.player_pos[0], 4), round(self.player_pos[1], 4)],
            "enemy_pos": [round(self.enemy_pos[0], 4), round(self.enemy_pos[1], 4)],
            "enemy_telegraph": (
                None
                if self.enemy_telegraph is None
                else {
                    "kind": self.enemy_telegraph.kind,
                    "remaining_ms": self.enemy_telegraph.remaining_ms,
                }
            ),
            "player_status": self.player_status.value,
            "heal_charges": self.heal_charges,
            "immobilize_ready": self.immobilize_ready,
            "enemy_stunned_ms": self.enemy_stunned_ms,
        }


class ArenaConfig:
    """Engine constants: the shipped balance, read off the class.

    The frame grid needs a positive tick, a frame interval of whole
    ticks and a positive ``min_cycle_ms``; ``_check_frame_grid`` checks
    this when the module loads.
    """

    tick_ms = 25
    frame_interval_ms = 125          # 8 frames per second
    walk_speed_mps = 3.0
    sprint_multiplier = 1.6
    iframe_ms = 400                  # dodge invulnerability window
    block_window_ms = 600            # SSDT: block arms for this long
    heal_fraction = 0.30
    heal_charges = 3
    heal_cast_ms = 500
    immobilize_cooldown_ms = 20_000
    immobilize_stun_ms = 4_000
    player_attack = 100.0
    player_defense = 600.0
    defense_constant = 1000.0        # incoming = power * K / (K + defense)
    attack_range_m = 2.2
    light_attack_delay_ms = 250
    tap_press_ms = 50                # synthesized tap edge length
    min_cycle_ms = 250               # every action set advances at least this
    burn_duration_ms = 3_000
    burn_dps = 20.0
    player_max_hp = 1000.0
    cycle_cap = 200


def _check_frame_grid(cfg: type[ArenaConfig]) -> None:
    if cfg.tick_ms <= 0:
        raise ValueError("tick_ms must be positive")
    if cfg.frame_interval_ms <= 0 or cfg.frame_interval_ms % cfg.tick_ms:
        raise ValueError("frame_interval_ms must be a positive multiple of tick_ms")
    if cfg.min_cycle_ms <= 0:
        raise ValueError("min_cycle_ms must be positive")


_check_frame_grid(ArenaConfig)


# Task fields that must be finite and above 0 (hit points, power, lengths
# and speed), and the phase times that must not be below 0.
_POSITIVE_FIELDS = (
    "enemy_max_hp", "strike_power", "strike_range_m", "chase_speed_mps", "initial_distance_m",
)
_TIME_FIELDS = ("telegraph_ms", "idle_ms", "recovery_ms")


class TaskConfig(NamedTuple):
    """One duel in the task grid."""

    task_id: int
    name: str
    game_mode: GameMode
    difficulty: Difficulty
    enemy_max_hp: float
    strike_power: float
    strike_range_m: float
    telegraph_ms: int
    idle_ms: int
    recovery_ms: int
    chase_speed_mps: float
    strike_kind: str
    applies_burning: bool
    initial_distance_m: float

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TaskConfig":
        """One task-file entry; a missing field, one of another JSON type,
        an integer too large for a float field, an unknown game mode or
        difficulty, a hit point, power, length or speed that is not a finite
        number above 0 and a phase time below 0 are each a ``ConfigError``
        naming the task and the field. ``typed_field`` types each field, so a
        float field takes a JSON integer (``"enemy_max_hp": 780``)."""
        task = obj.get("task_id")

        def typed(key: str, kind: type) -> Any:
            try:
                return typed_field(obj, key, kind)
            except KeyError:
                raise ConfigError(f"task {task!r}: missing field {key!r}") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"task {task!r}: {exc}") from None

        def member(key: str, kind: type[Enum]) -> Any:
            value = typed(key, str)
            try:
                return kind(value)
            except ValueError:
                known = ", ".join(repr(m.value) for m in kind)
                raise ConfigError(
                    f"task {task!r}: field {key!r} is not one of {known}: {value!r}"
                ) from None

        config = cls(
            task_id=typed("task_id", int),
            name=typed("name", str),
            game_mode=member("game_mode", GameMode),
            difficulty=member("difficulty", Difficulty),
            enemy_max_hp=typed("enemy_max_hp", float),
            strike_power=typed("strike_power", float),
            strike_range_m=typed("strike_range_m", float),
            telegraph_ms=typed("telegraph_ms", int),
            idle_ms=typed("idle_ms", int),
            recovery_ms=typed("recovery_ms", int),
            chase_speed_mps=typed("chase_speed_mps", float),
            strike_kind=typed("strike_kind", str),
            applies_burning=typed("applies_burning", bool),
            initial_distance_m=typed("initial_distance_m", float),
        )
        for key in _POSITIVE_FIELDS:
            value = getattr(config, key)
            if not 0.0 < value < math.inf:  # NaN included
                raise ConfigError(
                    f"task {task!r}: field {key!r} is not a finite number above 0: {value!r}"
                )
        for key in _TIME_FIELDS:
            value = getattr(config, key)
            if value < 0:
                raise ConfigError(f"task {task!r}: field {key!r} is below 0: {value!r}")
        return config


def load_task_configs(path: str | Path | None = None) -> dict[int, TaskConfig]:
    """Load the versioned task file; defaults to the bundled grid.

    A file that is not UTF-8 JSON (naming its line), of another shape or
    version, a bad entry and a repeated ``task_id`` are each a ``ConfigError``.
    """
    if path is None:
        # beside this module, as importlib.resources finds it in an unzipped
        # package; importing importlib.resources loads inspect and ast on
        # Python 3.12 and later
        path = Path(__file__).with_name("data") / "tasks.json"
    try:
        obj = read_json(path)
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(obj, dict) or not isinstance(obj.get("tasks"), list):
        raise ConfigError("task file: expected an object with a list of tasks")
    version = obj.get("version")
    if type(version) is not int or version != 1:
        raise ConfigError(f"task file: field 'version' is not 1: {version!r}")
    tasks = {}
    for i, entry in enumerate(obj["tasks"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"task file: entry {i} is not an object: {entry!r}")
        task = TaskConfig.from_json_dict(entry)
        if task.task_id in tasks:
            raise ConfigError(f"task {task.task_id}: field 'task_id' is repeated")
        tasks[task.task_id] = task
    return tasks


class _Phase(Enum):
    IDLE = "idle"
    TELEGRAPH = "telegraph"
    RECOVERY = "recovery"


class ArenaState:
    """Mutable duel state. All times are sim-clock milliseconds.

    A slotted class: setting an attribute it does not have, such as a
    misspelt field, is an ``AttributeError``. The constructor draws the
    spawn distance, then the first idle phase's jitter, from ``rng``.
    """

    __slots__ = (
        "task", "rng", "clock_ms", "player_hp", "enemy_hp", "player_pos", "enemy_pos",
        "heal_charges", "pending_heal_at", "immobilize_ready_at", "enemy_stunned_until",
        "iframes_until", "block_until", "burning_until", "move_until", "sprint_until",
        "pending_attacks", "phase", "phase_ends_at", "action_log",
    )

    def __init__(self, task: TaskConfig, rng: random.Random):
        distance = task.initial_distance_m + rng.uniform(-0.5, 0.5)
        self.task = task
        self.rng = rng
        self.clock_ms = 0
        self.player_hp = ArenaConfig.player_max_hp
        self.enemy_hp = task.enemy_max_hp
        self.player_pos = [0.0, 0.0]
        self.enemy_pos = [0.0, max(1.0, distance)]
        self.heal_charges = ArenaConfig.heal_charges
        self.pending_heal_at: int | None = None
        self.immobilize_ready_at = 0
        self.enemy_stunned_until = 0
        self.iframes_until = 0
        self.block_until = 0
        self.burning_until = 0
        # movement hold windows: category -> end
        self.move_until: dict[ActionCategory, int] = {}
        self.sprint_until = 0
        # queued player attacks: (lands_at_ms, damage)
        self.pending_attacks: list[tuple[int, float]] = []
        self.phase = _Phase.IDLE
        self.phase_ends_at = task.idle_ms + _jitter_ticks(rng)
        self.action_log: list[dict] = []

    def log(self, kind: str, **detail: Any) -> None:
        self.action_log.append({"t_ms": self.clock_ms, "kind": kind, **detail})

    def distance(self) -> float:
        return math.hypot(
            self.enemy_pos[0] - self.player_pos[0], self.enemy_pos[1] - self.player_pos[1]
        )


def _jitter_ticks(rng: random.Random, spread_ticks: int = 3) -> int:
    return rng.randint(-spread_ticks, spread_ticks) * ArenaConfig.tick_ms


def new_arena(task: TaskConfig, seed: int = 0) -> ArenaState:
    return ArenaState(task, random.Random(seed))


_MOVE_DIRECTION = {
    ActionCategory.MOVE_FWD: (0.0, 1.0),
    ActionCategory.MOVE_BACK: (0.0, -1.0),
    ActionCategory.MOVE_LEFT: (-1.0, 0.0),
    ActionCategory.MOVE_RIGHT: (1.0, 0.0),
}


def _apply_commands(state: ArenaState, commands: ActionSet) -> None:
    now = state.clock_ms
    for event in commands.events:
        cat = event.category
        if cat is ActionCategory.HEAL:
            if state.heal_charges > 0:
                state.heal_charges -= 1
                state.pending_heal_at = now + ArenaConfig.heal_cast_ms
                state.log("heal_start", charges_left=state.heal_charges)
            else:
                state.log("heal_noop", reason="no charges")
        elif cat is ActionCategory.IMMOBILIZE:
            if now >= state.immobilize_ready_at:
                state.enemy_stunned_until = now + ArenaConfig.immobilize_stun_ms
                state.immobilize_ready_at = now + ArenaConfig.immobilize_cooldown_ms
                if state.phase is _Phase.TELEGRAPH:
                    # freezing mid-windup cancels the strike outright
                    state.phase = _Phase.RECOVERY
                state.phase_ends_at = state.enemy_stunned_until + state.task.recovery_ms
                state.log("immobilize", stun_ms=ArenaConfig.immobilize_stun_ms)
            else:
                state.log("immobilize_noop", ready_in_ms=state.immobilize_ready_at - now)
        elif cat is ActionCategory.DODGE:
            if state.task.game_mode is GameMode.SSDT:
                state.block_until = now + ArenaConfig.block_window_ms
                state.log("block_armed", window_ms=ArenaConfig.block_window_ms)
            else:
                state.iframes_until = now + ArenaConfig.iframe_ms
                state.log("dodge", iframe_ms=ArenaConfig.iframe_ms)
        elif cat is ActionCategory.LIGHT_ATTACK:
            lands_at = now + ArenaConfig.light_attack_delay_ms
            state.pending_attacks.append((lands_at, ArenaConfig.player_attack))
            state.log("light_attack_started")
        elif cat is ActionCategory.HEAVY_ATTACK:
            held_s = (event.duration_ms or 0) / 1000.0
            damage = ArenaConfig.player_attack * (1.0 + held_s)
            state.pending_attacks.append((now + (event.duration_ms or 0), damage))
            state.log("heavy_attack_started", held_s=held_s, damage=damage)
        elif cat in _MOVE_DIRECTION:
            state.move_until[cat] = now + (event.duration_ms or 0)
        elif cat is ActionCategory.SPRINT:
            state.sprint_until = now + (event.duration_ms or 0)
    state.pending_attacks.sort()


# how long each tap keeps the player busy; a hold is busy for its duration
_TAP_BUSY_MS = {
    ActionCategory.HEAL: ArenaConfig.heal_cast_ms,
    ActionCategory.DODGE: ArenaConfig.iframe_ms,
    ActionCategory.LIGHT_ATTACK: ArenaConfig.light_attack_delay_ms,
}


# Bound on the cycle-length memo; far above the distinct sets the shipped
# policies answer with (seven scripted sets, a few dozen random ones).
_CYCLE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CYCLE_CACHE_SIZE)
def cycle_ms(commands: ActionSet | None) -> int:
    """How long ``step`` runs a decision's ``commands``: ``min_cycle_ms`` for none,
    else the busiest action, at least ``min_cycle_ms``, plus one tick.

    Memoized: an ``ActionSet`` is immutable, and the decoder's memo hands
    back the same set for a repeated answer."""
    if not commands:
        return ArenaConfig.min_cycle_ms
    busiest = max(
        (event.duration_ms or 0)
        if event.mode is ActionMode.HOLD
        else _TAP_BUSY_MS.get(event.category, ArenaConfig.tap_press_ms)
        for event in commands
    )
    return max(ArenaConfig.min_cycle_ms, busiest) + ArenaConfig.tick_ms


def step(
    state: ArenaState,
    commands: ActionSet | None,
    duration_ms: int,
    frames: list[ObservationFrame] | None = None,
) -> ArenaState:
    """The tick engine: apply the onsets of ``commands`` (or none), then tick ``duration_ms``.

    Ticks are whole ``ArenaConfig.tick_ms`` steps: the clock stops at the
    first tick boundary at or past start + ``duration_ms``, which must be
    positive (else ``ValueError``). Taps take effect at once; holds open
    windows that later ticks honor. Given a ``frames`` list, ``step``
    appends the ``ObservationFrame`` of each tick that ends on a multiple
    of ``ArenaConfig.frame_interval_ms``, the frame ``render_observation``
    would give of the state at that instant.

    A tick runs, in order: player movement from the open hold windows,
    the scheduled heal, the player attacks due by its end, the enemy's
    chase and phase machine (the strike resolves when the telegraph
    ends), and burning. Log entries carry the tick's start time. The
    loop keeps the state it changes in locals, builds each frame from
    them and stores them back once, at the end.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if commands is not None:
        _apply_commands(state, commands)
    task = state.task
    dt = ArenaConfig.tick_ms
    hypot = math.hypot
    idle, telegraph, recovery = _Phase.IDLE, _Phase.TELEGRAPH, _Phase.RECOVERY
    frame_interval = ArenaConfig.frame_interval_ms
    walk_speed = ArenaConfig.walk_speed_mps
    sprint_speed = walk_speed * ArenaConfig.sprint_multiplier
    chase_m = task.chase_speed_mps * dt / 1000.0
    burn_dps = ArenaConfig.burn_dps
    # builds the frames' named tuples without their Python-level constructors
    new_tuple = tuple.__new__

    t0 = state.clock_ms
    px, py = state.player_pos
    ex, ey = state.enemy_pos
    player_hp, enemy_hp = state.player_hp, state.enemy_hp
    phase, phase_ends_at = state.phase, state.phase_ends_at
    heal_at, burning_until = state.pending_heal_at, state.burning_until
    stunned_until, sprint_until = state.enemy_stunned_until, state.sprint_until
    # no tick changes these two; the frames read them
    heal_charges, immobilize_ready_at = state.heal_charges, state.immobilize_ready_at
    max_hp, enemy_max_hp = ArenaConfig.player_max_hp, task.enemy_max_hp
    pending = state.pending_attacks
    # open hold windows in move_until order: (until, x direction, y direction);
    # move_until keeps closed windows, so test for an open one first
    move_until = state.move_until
    moves, moves_expire = [], 0
    if move_until and max(move_until.values()) > t0:
        moves = [(until, *_MOVE_DIRECTION[cat]) for cat, until in move_until.items() if until > t0]
        moves_expire = min(moves)[0]
    end = t0 + -(-duration_ms // dt) * dt
    # the first frame instant past t0; a clock off the tick grid meets none,
    # as t0 % frame_interval == 0 would not, and without a list none is due
    next_frame = t0 - t0 % frame_interval + frame_interval if frames is not None else end + 1

    for t1 in range(t0 + dt, end + 1, dt):

        # player movement from open hold windows
        if moves:
            speed = sprint_speed if sprint_until > t0 else walk_speed
            dx = dy = 0.0
            for until, ux, uy in moves:
                overlap = (t1 if t1 < until else until) - t0
                dx += ux * speed * overlap / 1000.0
                dy += uy * speed * overlap / 1000.0
            px += dx
            py += dy
            if moves_expire <= t1:
                moves = [m for m in moves if m[0] > t1]
                moves_expire = min(moves)[0] if moves else 0

        # scheduled heal
        if heal_at is not None and t0 < heal_at <= t1:
            healed = ArenaConfig.heal_fraction * ArenaConfig.player_max_hp
            player_hp = min(ArenaConfig.player_max_hp, player_hp + healed)
            heal_at = state.pending_heal_at = None
            state.clock_ms = t0
            state.log("heal_applied", amount=healed)

        # scheduled player attacks
        while pending and pending[0][0] <= t1:
            _, damage = pending.pop(0)
            state.clock_ms = t0
            distance = hypot(ex - px, ey - py)
            if distance <= ArenaConfig.attack_range_m:
                enemy_hp = max(0.0, enemy_hp - damage)
                state.log("player_hit", damage=damage, enemy_hp=enemy_hp)
            else:
                state.log("player_miss", distance=round(distance, 3))

        # enemy: chase the player, then run the phase machine
        if stunned_until <= t0 and enemy_hp > 0.0:
            if phase is not telegraph:
                distance = hypot(ex - px, ey - py)
                if distance > 0.8:
                    frac = chase_m / distance
                    frac = frac if frac < 1.0 else 1.0
                    ex += (px - ex) * frac
                    ey += (py - ey) * frac
            if t1 >= phase_ends_at:
                if phase is idle:
                    phase, phase_ends_at = telegraph, t1 + task.telegraph_ms
                elif phase is telegraph:
                    state.clock_ms = t0
                    strike = task.strike_kind
                    if hypot(ex - px, ey - py) > task.strike_range_m:
                        state.log("enemy_strike", outcome="out_of_range", strike=strike)
                    elif task.game_mode is GameMode.SSDT and state.block_until >= t0:
                        state.block_until = 0  # a block absorbs exactly one strike
                        state.log("enemy_strike", outcome="blocked", strike=strike)
                    elif task.game_mode is GameMode.BMW and state.iframes_until >= t0:
                        state.log("enemy_strike", outcome="dodged", strike=strike)
                    else:
                        damage = task.strike_power * ArenaConfig.defense_constant / (
                            ArenaConfig.defense_constant + ArenaConfig.player_defense
                        )
                        player_hp = max(0.0, player_hp - damage)
                        if task.applies_burning:
                            burning_until = state.burning_until = t0 + ArenaConfig.burn_duration_ms
                        state.log("enemy_strike", outcome="hit", strike=strike, damage=damage)
                    phase, phase_ends_at = recovery, t1 + task.recovery_ms
                else:
                    phase = idle
                    phase_ends_at = t1 + task.idle_ms + _jitter_ticks(state.rng)

        # burning damage over time
        if burning_until > t0 and player_hp > 0:
            burn_overlap = (t1 if t1 < burning_until else burning_until) - t0
            player_hp = max(0.0, player_hp - burn_dps * burn_overlap / 1000.0)

        t0 = t1
        if t0 == next_frame:
            next_frame += frame_interval
            shown = None
            if phase is telegraph and stunned_until <= t0 and enemy_hp > 0.0:
                remaining = phase_ends_at - t0
                shown = new_tuple(Telegraph, (task.strike_kind, remaining if remaining > 0 else 0))
            # render_observation's max() clamps, as conditionals: cheaper than
            # calls at one frame every five ticks
            player_frac, enemy_frac = player_hp / max_hp, enemy_hp / enemy_max_hp
            frames.append(new_tuple(ObservationFrame, (
                t0,
                player_frac if player_frac > 0.0 else 0.0,
                enemy_frac if enemy_frac > 0.0 else 0.0,
                (px, py),
                (ex, ey),
                shown,
                _BURNING if burning_until > t0 else _NORMAL,
                heal_charges,
                t0 >= immobilize_ready_at,
                stunned_until - t0 if stunned_until > t0 else 0,
            )))

    state.clock_ms = t0
    state.player_pos[0], state.player_pos[1] = px, py
    state.enemy_pos[0], state.enemy_pos[1] = ex, ey
    state.player_hp, state.enemy_hp = player_hp, enemy_hp
    state.phase, state.phase_ends_at = phase, phase_ends_at
    return state


_TELEGRAPH = _Phase.TELEGRAPH
_BURNING, _NORMAL = PlayerStatus.BURNING, PlayerStatus.NORMAL


def render_observation(state: ArenaState) -> ObservationFrame:
    """The frame of ``state`` as it stands; ``step`` builds the same frame
    from its tick loop's locals."""
    now, enemy_hp = state.clock_ms, state.enemy_hp
    telegraph = None
    if state.phase is _TELEGRAPH and state.enemy_stunned_until <= now and enemy_hp > 0.0:
        telegraph = Telegraph(state.task.strike_kind, max(0, state.phase_ends_at - now))
    player_pos, enemy_pos = state.player_pos, state.enemy_pos
    return ObservationFrame(
        now,
        max(0.0, state.player_hp / ArenaConfig.player_max_hp),
        max(0.0, enemy_hp / state.task.enemy_max_hp),
        (player_pos[0], player_pos[1]),
        (enemy_pos[0], enemy_pos[1]),
        telegraph,
        _BURNING if state.burning_until > now else _NORMAL,
        state.heal_charges,
        now >= state.immobilize_ready_at,
        max(0, state.enemy_stunned_until - now),
    )


# ------------------------------------------------------- frame sampling

FRAME_SAMPLE_WINDOW = 9
_FRAME_SAMPLE_STRIDE = 4
FRAME_SAMPLE_OFFSETS = tuple(range(0, FRAME_SAMPLE_WINDOW, _FRAME_SAMPLE_STRIDE))  # (0, 4, 8)


def sample_frames(frames: Sequence[ObservationFrame]) -> Sequence[ObservationFrame]:
    """Evenly pick 3 of the last 9 frames (window offsets 0, 4, 8), as one
    stride slice of ``frames``, so a list gives a list."""
    if len(frames) < FRAME_SAMPLE_WINDOW:
        raise InsufficientHistory(
            f"need {FRAME_SAMPLE_WINDOW} recorded frames, have {len(frames)}"
        )
    return frames[-FRAME_SAMPLE_WINDOW::_FRAME_SAMPLE_STRIDE]


def iter_tasks(tasks: dict[int, TaskConfig], selector: str) -> list[TaskConfig]:
    """Resolve a task selector: 'all' or an id list like '1,2,11'.

    A part that is not an integer, an unknown or repeated id, and a
    selector that selects nothing are each a ``ConfigError``.
    """
    if selector == "all":
        return [tasks[k] for k in sorted(tasks)]
    where = f"task selector {selector!r}"
    ids = []
    for part in selector.split(","):
        if part.strip():
            try:
                ids.append(int(part))
            except ValueError:
                raise ConfigError(f"{where}: {part!r} is not a task id") from None
    if not ids:
        raise ConfigError(f"{where}: selects no task")
    missing = [i for i in ids if i not in tasks]
    if missing:
        raise ConfigError(f"{where}: unknown task ids {missing}")
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ConfigError(f"{where}: repeats task ids {repeated}")
    return [tasks[i] for i in ids]
