"""Deterministic duel simulator: timing, combat math, and the task grid."""

import hashlib
import json
import math
import random

import pytest

from combatkit.actions import ActionCategory, ActionEvent, ActionSet
from combatkit.arena import (
    FRAME_SAMPLE_OFFSETS,
    FRAME_SAMPLE_WINDOW,
    ArenaConfig,
    ArenaState,
    Difficulty,
    GameMode,
    ObservationFrame,
    PlayerStatus,
    TaskConfig,
    Telegraph,
    _check_frame_grid,
    cycle_ms,
    iter_tasks,
    load_task_configs,
    new_arena,
    render_observation,
    sample_frames,
    step,
)
from combatkit.errors import ConfigError, InsufficientHistory


def _task(**over):
    base = dict(
        task_id=99,
        name="drill dummy",
        game_mode=GameMode.BMW,
        difficulty=Difficulty.EASY,
        enemy_max_hp=1000.0,
        strike_power=400.0,
        strike_range_m=5.0,
        telegraph_ms=600,
        idle_ms=1000,
        recovery_ms=600,
        chase_speed_mps=0.0,
        strike_kind="slash",
        applies_burning=False,
        initial_distance_m=2.0,
    )
    base.update(over)
    return TaskConfig(**base)


def _arena(task=None, seed=0, distance=1.0):
    state = new_arena(task or _task(), seed=seed)
    state.enemy_pos = [0.0, distance]
    return state


def _strikes(state):
    return [e for e in state.action_log if e["kind"] == "enemy_strike"]


_TICK = ArenaConfig.tick_ms


def _run(state, ticks, commander=None):
    for _ in range(ticks):
        cmds = commander(render_observation(state)) if commander else None
        step(state, cmds, _TICK)
    return state


def test_config_validation():
    # the frame grid: a positive tick, frames on whole ticks, cycles that advance
    assert ArenaConfig.tick_ms > 0
    assert ArenaConfig.frame_interval_ms % ArenaConfig.tick_ms == 0
    assert ArenaConfig.frame_interval_ms // ArenaConfig.tick_ms == 5
    assert ArenaConfig.min_cycle_ms > 0
    _check_frame_grid(ArenaConfig)

    class OffGrid(ArenaConfig):
        frame_interval_ms = 130  # not a tick multiple

    class NoTick(ArenaConfig):
        tick_ms = 0

    with pytest.raises(ValueError, match="frame_interval_ms"):
        _check_frame_grid(OffGrid)
    with pytest.raises(ValueError, match="tick_ms"):
        _check_frame_grid(NoTick)


def test_config_rejects_nonpositive_min_cycle():
    class Stalled(ArenaConfig):
        min_cycle_ms = 0

    with pytest.raises(ValueError, match="min_cycle_ms"):
        _check_frame_grid(Stalled)


def test_bundled_task_grid():
    tasks = load_task_configs()
    assert sorted(tasks) == list(range(1, 14))
    modes = {t.game_mode for t in tasks.values()}
    assert modes == {GameMode.BMW, GameMode.SSDT}
    assert sum(1 for t in tasks.values() if t.game_mode is GameMode.SSDT) == 3
    by_difficulty = {}
    for t in tasks.values():
        by_difficulty.setdefault(t.difficulty, []).append(t.task_id)
    assert sorted(by_difficulty[Difficulty.EASY]) == [1, 2, 3, 4, 5, 11]
    assert sorted(by_difficulty[Difficulty.VERY_HARD]) == [9, 10]
    # harder tiers hit harder and telegraph for less time
    easy = tasks[1]
    very_hard = tasks[10]
    assert very_hard.strike_power > easy.strike_power
    assert very_hard.telegraph_ms < easy.telegraph_ms


def test_task_file_rejects_duplicates_and_bad_version(tmp_path):
    tasks = load_task_configs()
    row = {
        "task_id": 1,
        "name": "x",
        "game_mode": "BMW",
        "difficulty": "easy",
        "enemy_max_hp": 100,
        "strike_power": 100,
        "strike_range_m": 2.0,
        "telegraph_ms": 600,
        "idle_ms": 1000,
        "recovery_ms": 500,
        "chase_speed_mps": 1.0,
        "strike_kind": "slash",
        "applies_burning": False,
        "initial_distance_m": 2.0,
    }
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"version": 1, "tasks": [row, row]}))
    with pytest.raises(ConfigError) as err:
        load_task_configs(dup)
    assert str(err.value) == "task 1: field 'task_id' is repeated"
    wrong = tmp_path / "wrong.json"
    for version in (2, True, "1", None):
        wrong.write_text(json.dumps({"version": version, "tasks": [row]}))
        with pytest.raises(ConfigError) as err:
            load_task_configs(wrong)
        assert str(err.value) == f"task file: field 'version' is not 1: {version!r}"
    assert len(tasks) == 13


def test_task_file_with_a_repeated_key_is_a_config_error(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text('{"version": 1, "version": 1, "tasks": []}')
    with pytest.raises(ConfigError) as err:
        load_task_configs(path)
    assert str(err.value) == f"{path}:1: bad JSON: repeated key 'version'"


_TASK_ROW = {
    "task_id": 4, "name": "x", "game_mode": "BMW", "difficulty": "easy",
    "enemy_max_hp": 780, "strike_power": 400.5, "strike_range_m": 2, "telegraph_ms": 600,
    "idle_ms": 1000, "recovery_ms": 500, "chase_speed_mps": 1.0, "strike_kind": "slash",
    "applies_burning": False, "initial_distance_m": 2.0,
}


@pytest.mark.parametrize(
    "key,value,reason",
    [
        ("applies_burning", "false", "field 'applies_burning' is not a boolean: 'false'"),
        ("applies_burning", 0, "field 'applies_burning' is not a boolean: 0"),
        ("telegraph_ms", 600.9, "field 'telegraph_ms' is not an integer: 600.9"),
        ("telegraph_ms", True, "field 'telegraph_ms' is not an integer: True"),
        ("enemy_max_hp", True, "field 'enemy_max_hp' is not a number: True"),
        ("strike_power", "400", "field 'strike_power' is not a number: '400'"),
        ("name", 7, "field 'name' is not a string: 7"),
        ("game_mode", None, "field 'game_mode' is not a string: None"),
        ("idle_ms", ..., "missing field 'idle_ms'"),
        ("game_mode", "XYZ", "field 'game_mode' is not one of 'BMW', 'SSDT': 'XYZ'"),
        (
            "difficulty",
            "insane",
            "field 'difficulty' is not one of 'easy', 'middle', 'hard', 'very_hard': 'insane'",
        ),
        pytest.param(
            "enemy_max_hp", 10**400, "field 'enemy_max_hp' is beyond the float range",
            id="enemy_max_hp-float-overflow",
        ),
    ],
)
def test_task_file_refuses_a_field_of_another_json_type(tmp_path, key, value, reason):
    row = dict(_TASK_ROW)
    if value is ...:
        del row[key]
    else:
        row[key] = value
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [row]}))
    with pytest.raises(ConfigError) as err:
        load_task_configs(path)
    assert str(err.value) == f"task 4: {reason}"


@pytest.mark.parametrize(
    "key,value,reason",
    [
        # values must be finite
        ("enemy_max_hp", math.nan, "field 'enemy_max_hp' is not a finite number above 0: nan"),
        ("strike_range_m", math.inf, "field 'strike_range_m' is not a finite number above 0: inf"),
        # hit points, powers, lengths and speeds must be above 0
        ("enemy_max_hp", -5, "field 'enemy_max_hp' is not a finite number above 0: -5.0"),
        ("chase_speed_mps", 0, "field 'chase_speed_mps' is not a finite number above 0: 0.0"),
        # times must not be below 0
        ("telegraph_ms", -1, "field 'telegraph_ms' is below 0: -1"),
    ],
)
def test_task_file_refuses_a_value_out_of_range(tmp_path, key, value, reason):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [{**_TASK_ROW, key: value}]}))
    with pytest.raises(ConfigError) as err:
        load_task_configs(path)
    assert str(err.value) == f"task 4: {reason}"


def test_task_file_takes_a_phase_time_of_0(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [{**_TASK_ROW, "idle_ms": 0}]}))
    assert load_task_configs(path)[4].idle_ms == 0


@pytest.mark.parametrize(
    "content,message",
    [
        ([1], "task file: expected an object with a list of tasks"),
        ({"version": 1}, "task file: expected an object with a list of tasks"),
        ({"version": 1, "tasks": {"1": {}}}, "task file: expected an object with a list of tasks"),
        ({"version": 1, "tasks": [5]}, "task file: entry 0 is not an object: 5"),
        # bytes are written as they are: a file that is not JSON, or not UTF-8
        (b'{"version": 1,\n"tasks": [', "{path}:2: bad JSON: Expecting value"),
        (
            b'{"version": 1, "tasks": [],\n"name": "\xff"}',
            "{path}:2: not UTF-8: invalid start byte at byte 10",
        ),
    ],
)
def test_task_file_of_another_shape_is_a_config_error(tmp_path, content, message):
    path = tmp_path / "tasks.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    with pytest.raises(ConfigError) as err:
        load_task_configs(path)
    assert str(err.value) == message.format(path=path)


def test_task_file_float_fields_take_json_integers(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [_TASK_ROW]}))
    task = load_task_configs(path)[4]
    assert (task.enemy_max_hp, task.strike_power, task.strike_range_m) == (780.0, 400.5, 2.0)
    assert type(task.enemy_max_hp) is float and type(task.strike_range_m) is float


def test_new_arena_seed_determinism():
    task = _task()
    a = new_arena(task, seed=5)
    b = new_arena(task, seed=5)
    assert a.enemy_pos == b.enemy_pos
    assert a.phase_ends_at == b.phase_ends_at
    assert a.player_hp == 1000.0 and a.enemy_hp == task.enemy_max_hp
    assert a.heal_charges == 3
    # spawn distance stays at least 1 m even with negative jitter
    close = new_arena(_task(initial_distance_m=0.6), seed=5)
    assert close.distance() >= 1.0


def test_strike_damage_uses_defense_curve():
    state = _arena()
    _run(state, 120)  # idle (~1000ms) + telegraph (600ms) comfortably inside 3s
    hits = _strikes(state)
    assert hits and hits[0]["outcome"] == "hit"
    # 400 power against 600 defense with K=1000: 400 * 1000/1600 = 250
    assert hits[0]["damage"] == pytest.approx(250.0)
    assert state.player_hp == pytest.approx(1000.0 - 250.0 * len([h for h in hits if h["outcome"] == "hit"]))


def test_strike_out_of_range_misses():
    state = _arena(_task(strike_range_m=0.5), distance=1.0)
    _run(state, 120)
    assert _strikes(state)
    assert {e["outcome"] for e in _strikes(state)} == {"out_of_range"}
    assert state.player_hp == 1000.0


def test_dodge_iframes_cover_the_strike():
    def commander(obs):
        t = obs.enemy_telegraph
        if t is not None and t.remaining_ms <= 400:
            return ActionSet.of(ActionEvent.tap(ActionCategory.DODGE))
        return None

    state = _arena(seed=3)
    _run(state, 400, commander)
    outcomes = {e["outcome"] for e in _strikes(state)}
    assert outcomes == {"dodged"}
    assert state.player_hp == 1000.0


def test_ssdt_block_absorbs_exactly_one_strike():
    blocked_once = {"done": False}

    def commander(obs):
        t = obs.enemy_telegraph
        if t is not None and t.remaining_ms <= 400 and not blocked_once["done"]:
            blocked_once["done"] = True
            return ActionSet.of(ActionEvent.tap(ActionCategory.DODGE))
        return None

    state = _arena(_task(game_mode=GameMode.SSDT), seed=3)
    _run(state, 250, commander)
    outcomes = [e["outcome"] for e in _strikes(state)]
    assert outcomes[0] == "blocked"
    assert "hit" in outcomes[1:]
    assert state.player_hp < 1000.0


def test_heal_cast_applies_after_delay_and_consumes_charge():
    state = _arena(_task(strike_range_m=0.1))
    state.player_hp = 300.0
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.HEAL)), _TICK)
    assert state.heal_charges == 2
    assert state.player_hp == 300.0  # cast still in flight
    _run(state, 19)  # 20 ticks total = 500 ms
    assert state.player_hp == pytest.approx(600.0)
    # clamp at max hp
    state.player_hp = 900.0
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.HEAL)), _TICK)
    _run(state, 19)
    assert state.player_hp == 1000.0
    assert state.heal_charges == 1


def test_heal_without_charges_is_noop():
    state = _arena(_task(strike_range_m=0.1))
    state.heal_charges = 0
    state.player_hp = 200.0
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.HEAL)), _TICK)
    _run(state, 25)
    assert state.player_hp == 200.0
    assert any(e["kind"] == "heal_noop" for e in state.action_log)


def test_immobilize_stuns_cancels_telegraph_and_cools_down():
    state = _arena(seed=2)
    # walk the clock into the windup
    while render_observation(state).enemy_telegraph is None:
        step(state, None, _TICK)
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.IMMOBILIZE)), _TICK)
    obs = render_observation(state)
    assert obs.enemy_telegraph is None  # strike canceled outright
    assert obs.enemy_stunned_ms > 0
    assert not obs.immobilize_ready
    # no strike lands while the stun and its recovery play out
    _run(state, 200)
    assert _strikes(state) == []
    # second use inside the cooldown is refused
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.IMMOBILIZE)), _TICK)
    assert any(e["kind"] == "immobilize_noop" for e in state.action_log)
    stuns = [e for e in state.action_log if e["kind"] == "immobilize"]
    assert len(stuns) == 1
    assert stuns[0]["stun_ms"] == 4000


def test_burning_strike_arms_the_dot():
    state = _arena(_task(applies_burning=True), seed=1)
    _run(state, 80)
    hits = [e for e in _strikes(state) if e["outcome"] == "hit"]
    assert hits, "expected the undefended strike to land"
    assert state.burning_until > 0
    assert render_observation(state).player_status is PlayerStatus.BURNING


def test_burning_dot_totals_sixty_hp():
    # isolate the dot: no reachable strike, burn window armed by hand
    state = _arena(_task(strike_range_m=0.1), seed=1)
    state.burning_until = state.clock_ms + 3000
    hp0 = state.player_hp
    _run(state, 120)  # last burn tick ends at 3000 ms exactly
    assert state.player_hp == pytest.approx(hp0 - 20.0 * 3.0, abs=1e-9)
    assert render_observation(state).player_status is PlayerStatus.NORMAL
    hp1 = state.player_hp
    _run(state, 40)
    assert state.player_hp == hp1  # dot expired


def test_light_attack_lands_after_delay_in_range():
    state = _arena(_task(strike_range_m=0.1), distance=1.0)
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.LIGHT_ATTACK)), _TICK)
    assert state.enemy_hp == 1000.0
    _run(state, 9)  # 250 ms total
    assert state.enemy_hp == pytest.approx(900.0)


def test_light_attack_misses_out_of_range():
    state = _arena(_task(strike_range_m=0.1), distance=3.0)
    step(state, ActionSet.of(ActionEvent.tap(ActionCategory.LIGHT_ATTACK)), _TICK)
    _run(state, 9)
    assert state.enemy_hp == 1000.0
    assert any(e["kind"] == "player_miss" for e in state.action_log)


def test_heavy_attack_damage_scales_with_charge():
    state = _arena(_task(strike_range_m=0.1), distance=1.0)
    step(state, ActionSet.of(ActionEvent.hold(ActionCategory.HEAVY_ATTACK, 1.0)), _TICK)
    _run(state, 39)  # 1000 ms
    assert state.enemy_hp == pytest.approx(1000.0 - 200.0)


def test_movement_and_sprint_speeds():
    state = _arena(_task(strike_range_m=0.1, idle_ms=60_000), distance=1.0)
    step(
        state,
        ActionSet.of(ActionEvent.hold(ActionCategory.MOVE_FWD, 0.5)),
        _TICK,
    )
    _run(state, 19)  # 500 ms total
    assert state.player_pos[1] == pytest.approx(3.0 * 0.5)
    state = _arena(_task(strike_range_m=0.1, idle_ms=60_000), distance=1.0)
    step(
        state,
        ActionSet.of(
            ActionEvent.hold(ActionCategory.MOVE_FWD, 0.5),
            ActionEvent.hold(ActionCategory.SPRINT, 0.5),
        ),
        _TICK,
    )
    _run(state, 19)
    assert state.player_pos[1] == pytest.approx(3.0 * 1.6 * 0.5)
    state = _arena(_task(strike_range_m=0.1, idle_ms=60_000), distance=1.0)
    step(state, ActionSet.of(ActionEvent.hold(ActionCategory.MOVE_LEFT, 0.25)), _TICK)
    _run(state, 9)
    assert state.player_pos[0] == pytest.approx(-0.75)
    assert state.player_pos[1] == pytest.approx(0.0)


def test_enemy_chases_until_close():
    state = _arena(_task(chase_speed_mps=2.0, idle_ms=60_000), distance=3.0)
    d0 = state.distance()
    _run(state, 10)
    assert state.distance() < d0
    _run(state, 400)
    # stops at the closeness floor rather than standing inside the player
    assert 0.7 < state.distance() <= 0.85


def test_telegraph_hidden_when_stunned_or_dead():
    state = _arena(seed=2)
    while render_observation(state).enemy_telegraph is None:
        step(state, None, _TICK)
    state.enemy_stunned_until = state.clock_ms + 1000
    assert render_observation(state).enemy_telegraph is None
    state.enemy_stunned_until = 0
    assert render_observation(state).enemy_telegraph is not None
    state.enemy_hp = 0.0
    assert render_observation(state).enemy_telegraph is None


def test_arena_records_refuse_assignment_and_the_state_refuses_a_typo():
    for record in (Telegraph("slash", 100), _task()):
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    state = _arena()
    state.clock_ms = 5
    with pytest.raises(AttributeError):
        state.clock = 5  # the mutable state has no such field, and takes none
    assert state.clock_ms == 5 and not hasattr(state, "clock")


def test_frames_are_immutable_and_replace_keeps_the_type():
    state = _arena(seed=4)
    _run(state, 60)
    frame = render_observation(state)
    with pytest.raises(AttributeError):
        frame.player_hp = 0.5
    changed = frame._replace(player_hp=0.25, enemy_telegraph=None)
    assert type(changed) is ObservationFrame
    assert (changed.player_hp, frame.player_hp) == (0.25, render_observation(state).player_hp)
    assert hash(frame) == hash(render_observation(state))


def test_frame_sampling():
    frames = []
    for i in range(12):
        f = ObservationFrame(
            t_ms=i * 125,
            player_hp=1.0,
            enemy_hp=1.0,
            player_pos=(0.0, 0.0),
            enemy_pos=(0.0, 1.0),
            enemy_telegraph=None,
            player_status=PlayerStatus.NORMAL,
            heal_charges=3,
            immobilize_ready=True,
            enemy_stunned_ms=0,
        )
        frames.append(f)
    # last 9 are frames 3..11; offsets 0, 4, 8 pick 3, 7, 11
    picked = sample_frames(frames)
    assert [f.t_ms for f in picked] == [3 * 125, 7 * 125, 11 * 125]
    assert FRAME_SAMPLE_WINDOW == 9 and FRAME_SAMPLE_OFFSETS == (0, 4, 8)
    with pytest.raises(InsufficientHistory):
        sample_frames(frames[:8])
    # the stride slice is the offset pick of the last 9, for every history length
    for n in range(FRAME_SAMPLE_WINDOW, 21):
        history = [frames[0]._replace(t_ms=i) for i in range(n)]
        window = history[-FRAME_SAMPLE_WINDOW:]
        assert sample_frames(history) == [window[i] for i in FRAME_SAMPLE_OFFSETS], n


def test_iter_tasks_selectors():
    tasks = load_task_configs()
    assert [t.task_id for t in iter_tasks(tasks, "all")] == list(range(1, 14))
    assert [t.task_id for t in iter_tasks(tasks, "2,11,1")] == [2, 11, 1]
    with pytest.raises(ConfigError, match=r"^task selector '1,99': unknown task ids \[99\]$"):
        iter_tasks(tasks, "1,99")


@pytest.mark.parametrize(
    "selector,reason",
    [
        ("1,x", "'x' is not a task id"),
        ("", "selects no task"),
        (" , ", "selects no task"),
        ("1,2,1", "repeats task ids [1]"),
    ],
)
def test_iter_tasks_rejects_bad_selectors(selector, reason):
    with pytest.raises(ConfigError) as err:
        iter_tasks(load_task_configs(), selector)
    assert str(err.value) == f"task selector {selector!r}: {reason}"


def _snapshot(state):
    """Every field of the state, with the generator's internal state in place of the object."""
    snap = {name: getattr(state, name) for name in ArenaState.__slots__ if name != "rng"}
    snap["rng"] = state.rng.getstate()
    return snap


def _digest(state, frames):
    """sha256 over the full-precision outcome of a run: clock, HP, positions, log, frames."""
    outcome = (
        state.clock_ms, state.player_hp, state.enemy_hp, state.player_pos, state.enemy_pos,
        state.phase.value, state.phase_ends_at, state.action_log, frames,
    )
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


_TAP, _HOLD = ActionEvent.tap, ActionEvent.hold

# (commands, ticks): heal and immobilize taps, holds that outlast or end
# inside their step, sprint, several move windows at once (one ending
# mid-tick, so the order of the movement sums shows), quiet stretches
_SCRIPT = (
    (ActionSet.of(_TAP(ActionCategory.HEAL), _HOLD(ActionCategory.MOVE_BACK, 1.0)), 41),
    (ActionSet.of(_HOLD(ActionCategory.MOVE_FWD, 0.4), _HOLD(ActionCategory.SPRINT, 0.4)), 17),
    (None, 33),
    (ActionSet.of(_TAP(ActionCategory.IMMOBILIZE), _TAP(ActionCategory.LIGHT_ATTACK)), 11),
    (ActionSet.of(_TAP(ActionCategory.DODGE)), 16),
    (ActionSet.of(_HOLD(ActionCategory.HEAVY_ATTACK, 1.0)), 41),
    (
        ActionSet.of(_HOLD(ActionCategory.MOVE_LEFT, 0.5), _HOLD(ActionCategory.MOVE_RIGHT, 0.25)),
        7,
    ),
    (ActionSet.of(_HOLD(ActionCategory.MOVE_FWD, 1.0), _TAP(ActionCategory.LIGHT_ATTACK)), 13),
    (ActionSet.of(_TAP(ActionCategory.HEAL), _TAP(ActionCategory.DODGE)), 29),
    (
        ActionSet.of(
            _HOLD(ActionCategory.MOVE_FWD, 0.5),
            ActionEvent.hold_ms(ActionCategory.MOVE_BACK, 487),
            ActionEvent.hold_ms(ActionCategory.MOVE_LEFT, 262),
            ActionEvent.hold_ms(ActionCategory.MOVE_RIGHT, 130),
            _HOLD(ActionCategory.SPRINT, 0.3),
        ),
        31,
    ),
    (None, 120),
) * 3


# _digest of each script run, pinned from the per-tick loop the fused one
# replaced: the script holds two move windows at once, so these pin the
# order of the float sums as well as the outcome.
_SCRIPT_DIGESTS = {
    1: "1073b3e6698921ce4473fc4f5c6b0304fe4f3eac0730f359599a33e2beab4a61",
    9: "b86f3ef3db3c9d857f3f9291d00d7b4838abb0ab9da138b32d5cf203dc5a2df0",
    10: "fc082eebcf183ee07774e7db69d40fb30ca9b2289b9b77f839228ce1bd0cd480",
    11: "93a7e4548196d03b342299fb8ab5d22c3ebeac029cec829d2b4312a671311ae7",
    13: "599e7673e4dbb9ebf25e950a85ad9f0e7f33e435f9d2d500e1b089f445e3acfd",
}


@pytest.mark.parametrize("task_id", sorted(_SCRIPT_DIGESTS))
def test_advance_equals_repeated_steps(task_id):
    task = load_task_configs()[task_id]
    fused, stepped = new_arena(task, seed=task_id), new_arena(task, seed=task_id)
    fused.player_hp = stepped.player_hp = 700.0  # heals land, and the player lasts a while
    tick, interval = ArenaConfig.tick_ms, ArenaConfig.frame_interval_ms
    fused_frames, stepped_frames = [], []
    for commands, ticks in _SCRIPT:
        step(fused, commands, ticks * tick, fused_frames)
        for i in range(ticks):
            step(stepped, commands if i == 0 else None, tick)
            if stepped.clock_ms % interval == 0:
                stepped_frames.append(render_observation(stepped))
        assert _snapshot(fused) == _snapshot(stepped)
    kinds = {e["kind"] for e in fused.action_log}
    assert {"heal_applied", "immobilize", "player_hit", "enemy_strike"} <= kinds
    assert fused_frames == stepped_frames
    assert [f.t_ms for f in fused_frames] == list(range(interval, fused.clock_ms + 1, interval))
    assert _digest(fused, fused_frames) == _SCRIPT_DIGESTS[task_id]


@pytest.mark.parametrize("task_id", [1, 10, 13])
def test_window_fill_in_one_advance_equals_single_ticks(task_id):
    # the runner fills the first sampling window with one step of the
    # missing frame intervals, where it once stepped a tick at a time
    task = load_task_configs()[task_id]
    one, ticked = new_arena(task, seed=task_id), new_arena(task, seed=task_id)
    one_frames, ticked_frames = [render_observation(one)], [render_observation(ticked)]
    interval, tick = ArenaConfig.frame_interval_ms, ArenaConfig.tick_ms
    step(one, None, 8 * interval, one_frames)
    for _ in range(40):
        step(ticked, None, tick)
        if ticked.clock_ms % interval == 0:
            ticked_frames.append(render_observation(ticked))
    assert ticked.clock_ms == 1000 and len(ticked_frames) == FRAME_SAMPLE_WINDOW
    assert _snapshot(one) == _snapshot(ticked)
    assert one_frames == ticked_frames


def test_advance_rounds_up_to_whole_ticks():
    state = _arena()
    frames = []
    step(state, None, 30, frames)
    assert state.clock_ms == 50 and frames == []
    step(state, None, 75, frames)
    assert state.clock_ms == 125 and [frame.t_ms for frame in frames] == [125]
    with pytest.raises(ValueError):
        step(state, None, 0)


# a duel that telegraphs within its first second, so frames carry telegraphs
_QUICK = _task(idle_ms=100, telegraph_ms=300, recovery_ms=150, chase_speed_mps=2.0,
               initial_distance_m=4.0)
_START_COMMANDS = (
    None,
    ActionSet.of(_HOLD(ActionCategory.MOVE_FWD, 0.3), _TAP(ActionCategory.LIGHT_ATTACK)),
)


def test_step_from_any_clock_appends_the_frames_of_single_ticks():
    # step looks for its frame instants from the clock it starts at: each
    # start on and off the 125 ms frame grid, with runs crossing 0 to 3
    # frame instants, gives the frames of single ticks plus
    # render_observation, as ObservationFrames, and the state of a run
    # that keeps no frames
    tick, interval = ArenaConfig.tick_ms, ArenaConfig.frame_interval_ms
    crossed, telegraphs = set(), 0
    for start_ms in (0, 25, 100, 125, 150):
        for ticks in (1, 3, 4, 5, 6, 9, 10, 11, 14, 15):
            for commands in _START_COMMANDS:
                runs = [new_arena(_QUICK, seed=start_ms + ticks) for _ in range(3)]
                for state in runs:
                    if start_ms:
                        step(state, None, start_ms)
                fused, bare, ticked = runs
                fused_frames, ticked_frames = [], []
                step(fused, commands, ticks * tick, fused_frames)
                step(bare, commands, ticks * tick)
                for i in range(ticks):
                    step(ticked, commands if i == 0 else None, tick)
                    if ticked.clock_ms % interval == 0:
                        ticked_frames.append(render_observation(ticked))
                where = (start_ms, ticks, commands)
                assert fused_frames == ticked_frames, where
                assert all(type(f) is ObservationFrame for f in fused_frames), where
                assert _snapshot(fused) == _snapshot(ticked) == _snapshot(bare), where
                crossed.add(len(fused_frames))
                for frame in fused_frames:
                    if frame.enemy_telegraph is not None:
                        assert type(frame.enemy_telegraph) is Telegraph, where
                        telegraphs += 1
    assert crossed == {0, 1, 2, 3} and telegraphs > 0


def test_cycle_length_is_the_busiest_action_plus_a_tick():
    assert cycle_ms(None) == cycle_ms(ActionSet(())) == ArenaConfig.min_cycle_ms
    # a tap press is shorter than the minimum cycle, which still gets its tick
    assert cycle_ms(ActionSet.of(_TAP(ActionCategory.IMMOBILIZE))) == 250 + _TICK
    assert cycle_ms(ActionSet.of(_TAP(ActionCategory.HEAL), _TAP(ActionCategory.DODGE))) == 500 + _TICK
    assert cycle_ms(ActionSet.of(_HOLD(ActionCategory.MOVE_FWD, 1.0))) == 1000 + _TICK


_FUZZ_TRIALS = 200
_FUZZ_STEPS = 40


def _random_commands(rng):
    if rng.random() < 0.2:
        return None
    events = []
    for category in rng.sample(list(ActionCategory), rng.randint(0, 4)):
        if category.tap_only or rng.random() < 0.5:
            events.append(ActionEvent.tap(category))
        else:
            events.append(ActionEvent.hold_ms(category, rng.randint(1, 2000)))
    return ActionSet(tuple(events))


def test_random_steps_keep_the_arena_invariants():
    # a seeded fuzz: random action sets and durations on every bundled
    # task, with the state checked after each step
    tasks = list(load_task_configs().values())
    rng = random.Random(20240)
    tick, interval = ArenaConfig.tick_ms, ArenaConfig.frame_interval_ms
    calls = 0
    for trial in range(_FUZZ_TRIALS):
        task = tasks[trial % len(tasks)]
        state = new_arena(task, seed=rng.randrange(1 << 30))
        frames = []
        for _ in range(_FUZZ_STEPS):
            before, shown = state.clock_ms, len(frames)
            duration = rng.randint(1, 1500)
            step(state, _random_commands(rng), duration, frames)
            calls += 1
            where = (task.task_id, trial, before, duration)
            assert state.clock_ms == before + -(-duration // tick) * tick, where
            assert 0.0 <= state.player_hp <= ArenaConfig.player_max_hp, where
            assert 0.0 <= state.enemy_hp <= task.enemy_max_hp, where
            assert 0 <= state.heal_charges <= ArenaConfig.heal_charges, where
            assert all(map(math.isfinite, (*state.player_pos, *state.enemy_pos))), where
            first = before - before % interval + interval
            assert [f.t_ms for f in frames[shown:]] == list(
                range(first, state.clock_ms + 1, interval)
            ), where
    assert calls == _FUZZ_TRIALS * _FUZZ_STEPS
