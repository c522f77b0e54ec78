"""Episode loop, transcript export, and the task-suite aggregator."""

import enum
import json

import pytest

from combatkit import runner
from combatkit.actions import ActionCategory, ActionMode
from combatkit.aot import align_session
from combatkit import policies
from combatkit.arena import FRAME_SAMPLE_WINDOW, ArenaConfig, cycle_ms, load_task_configs
from combatkit.decoding import DecodeMode, StopReason, decode
from combatkit.errors import ConfigError
from combatkit.policies import RandomPolicy, ScriptedPolicy
from combatkit.runner import (
    REFERENCE_LATENCIES,
    EpisodeReport,
    collect_transcripts,
    episode_seed,
    export_transcript,
    make_policy,
    run_episode,
    run_suite,
    simulated_latency_ms,
    transcript_to_session,
    write_suite_report,
)
from combatkit.tracker import Edge, import_session

TASKS = load_task_configs()


def test_episode_seed_derivation():
    assert episode_seed(0, 1, 0) == 1_009
    assert episode_seed(42, 13, 9) == 42 * 1_000_003 + 13 * 1_009 + 9
    seen = {episode_seed(7, t, r) for t in range(1, 14) for r in range(10)}
    assert len(seen) == 130  # no collisions inside one suite


def test_episode_runs_no_python_level_enum_hash(monkeypatch):
    # the arena looks categories up in dicts and sets once per decision, and
    # the policy and decoder memos hash action modes and stop reasons; all
    # three hash by identity, not through Enum.__hash__
    enum_hash = enum.Enum.__hash__
    calls = []

    def counting_hash(member):
        if type(member) in (ActionCategory, ActionMode, StopReason):
            calls.append(member)
        return enum_hash(member)

    monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
    run_episode(TASKS[3], ScriptedPolicy(), seed=1)
    assert len(calls) == 0


def test_scripted_episode_wins_task_one():
    report, transcript = run_episode(TASKS[1], ScriptedPolicy(), seed=11)
    assert report.success and report.failure_reason is None
    assert report.task_id == 1 and report.mode == "truncated"
    assert report.decision_cycles == report.policy_calls > 0
    assert report.sim_duration_ms > 0
    assert transcript.report == report
    assert transcript.episode_key == "t1s11"
    # frames land exactly on the 125 ms grid
    ts = [f.t_ms for f in transcript.frames]
    assert ts == list(range(0, ts[-1] + 1, 125))


def test_episode_determinism():
    a_report, a_tr = run_episode(TASKS[2], ScriptedPolicy(), seed=5)
    b_report, b_tr = run_episode(TASKS[2], ScriptedPolicy(), seed=5)
    assert a_report == b_report
    # with no clock read, whole transcripts repeat, cycle records included
    assert a_tr == b_tr
    assert [f.to_payload() for f in a_tr.frames] == [f.to_payload() for f in b_tr.frames]
    assert [c.actions.key() if c.actions else None for c in a_tr.cycles] == [
        c.actions.key() if c.actions else None for c in b_tr.cycles
    ]
    _, c_tr = run_episode(TASKS[2], ScriptedPolicy(), seed=6)
    # the seed moves the spawn jitter, so the opening frame differs
    assert c_tr.frames[0].enemy_pos != a_tr.frames[0].enemy_pos


def test_mode_changes_tokens_not_behavior():
    t_report, t_tr = run_episode(TASKS[1], ScriptedPolicy(), DecodeMode.TRUNCATED, seed=3)
    f_report, f_tr = run_episode(TASKS[1], ScriptedPolicy(), DecodeMode.FULL, seed=3)
    assert t_report.mean_emitted_tokens < f_report.mean_emitted_tokens
    assert t_report.decision_cycles == f_report.decision_cycles
    assert t_report.success == f_report.success
    assert [c.actions.key() for c in t_tr.cycles] == [c.actions.key() for c in f_tr.cycles]
    assert {c.stop_reason for c in t_tr.cycles} == {"trunc"}
    assert {c.stop_reason for c in f_tr.cycles} == {"eos"}


def test_random_episode_can_fail():
    report, _ = run_episode(TASKS[9], RandomPolicy(seed=0), seed=0)
    assert not report.success
    assert report.failure_reason in ("player_defeated", "cycle_cap")


def test_transcript_to_session_layout():
    _, transcript = run_episode(TASKS[1], ScriptedPolicy(), seed=11)
    session = transcript_to_session(transcript)
    assert session.meta["task_id"] == "1"
    assert session.meta["seed"] == "11"
    assert session.meta["game_mode"] == "BMW"
    assert session.meta["epoch_ms"] == "0"
    assert len(session.frames) == len(transcript.frames)
    assert session.active_intervals == ((0, transcript.report.sim_duration_ms),)
    # every commanded event appears as a down/up pair
    commanded = sum(len(c.actions) for c in transcript.cycles if c.actions)
    assert len(session.raw_events) == 2 * commanded
    mouse = [e for e in session.raw_events if e.device == "mouse"]
    assert all("mouse" in e.binding for e in mouse)
    # coalescing the synthesized edges reproduces the commanded actions
    aligned = align_session(session)
    assert len(aligned.actions) == commanded
    edges = {(e.binding, e.edge, e.t_ms) for e in session.raw_events}
    for cycle in transcript.cycles:
        if not cycle.actions:
            continue
        for event in cycle.actions:
            if event.mode is ActionMode.TAP:
                up_at = cycle.t_ms + ArenaConfig.tap_press_ms
                assert (event.category.binding, Edge.UP, up_at) in edges
            else:
                match = [
                    ta
                    for ta in aligned.actions
                    if ta.t_ms == cycle.t_ms and ta.event.category is event.category
                ]
                assert match and match[0].event.duration_ms == event.duration_ms


def test_cycles_advance_by_whole_ticks_and_at_least_min_cycle():
    _, transcript = run_episode(TASKS[1], ScriptedPolicy(), seed=11)
    times = [c.t_ms for c in transcript.cycles]
    # the first decision waits for a full sampling window of frames
    assert times[0] == (FRAME_SAMPLE_WINDOW - 1) * ArenaConfig.frame_interval_ms
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps and all(g >= ArenaConfig.min_cycle_ms for g in gaps)
    assert all(g % ArenaConfig.tick_ms == 0 for g in gaps)


def test_memoized_cycle_length_equals_the_rule_for_every_policy_answer():
    # the decision loop's cycle lengths come from a memo; it must give the
    # plain rule's length for no answer, each random answer in either mode
    # and each scripted answer, and hand repeats back from the cache
    scripted = (
        policies._HEAL_BACK_OFF, policies._DODGE, policies._COMBO, policies._LIGHT,
        policies._STEP_IN, policies._SPRINT_IN, policies._HEAVY,
    )
    answers = [
        tokens
        for tap, holds in policies._RANDOM_ANSWERS
        for tokens in ((tap,) if holds is None else holds)
    ]
    decoded = [decode(tokens, mode).actions for tokens in answers for mode in DecodeMode]
    for actions in (None, *decoded, *scripted):
        assert cycle_ms(actions) == cycle_ms.__wrapped__(actions), actions
        hits = cycle_ms.cache_info().hits
        assert cycle_ms(actions) == cycle_ms.__wrapped__(actions)
        assert cycle_ms.cache_info().hits == hits + 1, actions


def test_export_transcript_files(tmp_path):
    _, transcript = run_episode(TASKS[11], ScriptedPolicy(game_mode="SSDT"), seed=2)
    out = export_transcript(transcript, tmp_path / "ep")
    back = import_session(out)
    assert back.meta["game_mode"] == "SSDT"
    assert len(back.frames) == len(transcript.frames)


def test_make_policy_names():
    assert isinstance(make_policy("scripted", TASKS[1], 0), ScriptedPolicy)
    assert isinstance(make_policy("random", TASKS[1], 0), RandomPolicy)
    assert make_policy("scripted", TASKS[11], 0).game_mode == "SSDT"
    with pytest.raises(ConfigError, match="unknown policy 'llm'"):
        make_policy("llm", TASKS[1], 0)


def test_suite_rows_and_csv_shape():
    tasks = [TASKS[1], TASKS[11]]
    report = run_suite(tasks, repeats=2, seed=9)
    assert [r.task_id for r in report.rows] == [1, 11]
    assert all(r.repeats == 2 for r in report.rows)
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "task_id,mode,repeats,success_rate,mean_latency_ms,mean_cycles"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "truncated"
    assert first[3] == f"{report.rows[0].success_rate:.4f}"
    # simulated latency: emitted tokens at the fixed pace, not wall time
    assert report.rows[0].mean_latency_ms > 0
    assert report.pace_tokens_per_second == 40.0


def test_runner_records_refuse_assignment_and_write_their_fields():
    report, transcript = run_episode(TASKS[1], make_policy("scripted", TASKS[1], 0))
    suite = run_suite([TASKS[1]], repeats=1)
    for record in (report, transcript, suite, suite.rows[0]):
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert list(report.to_json_dict()) == list(report._fields)
    assert list(suite.rows[0].to_json_dict()) == list(suite.rows[0]._fields)
    assert set(suite.to_json_dict()) == {*suite._fields, "reference_latencies"}


def test_suite_latency_is_simulated_from_tokens():
    report = run_suite([TASKS[1]], repeats=1, seed=4, pace_tokens_per_second=40.0)
    ep_report, _ = run_episode(
        TASKS[1], ScriptedPolicy(), DecodeMode.TRUNCATED, episode_seed(4, 1, 0)
    )
    expected = ep_report.mean_emitted_tokens / 40.0 * 1000.0
    assert report.rows[0].mean_latency_ms == pytest.approx(expected)


@pytest.mark.parametrize(
    "setting, reason",
    [
        ({"repeats": 0}, "repeats must be at least 1, got 0"),
        ({"repeats": -1}, "repeats must be at least 1, got -1"),
        ({"pace_tokens_per_second": 0.0}, "pace must be a positive number"),
        ({"pace_tokens_per_second": -40.0}, "pace must be a positive number"),
        ({"pace_tokens_per_second": float("nan")}, "pace must be a positive number"),
    ],
)
def test_suite_rejects_bad_repeats_and_pace_before_any_episode(monkeypatch, setting, reason):
    def no_episode(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(runner, "run_episode", no_episode)
    with pytest.raises(ConfigError, match=reason):
        run_suite([TASKS[1]], **setting)


@pytest.mark.parametrize("pace", [0.0, -40.0])
def test_simulated_latency_rejects_pace_that_is_not_positive(pace):
    report, _ = run_episode(TASKS[1], ScriptedPolicy(), seed=11)
    with pytest.raises(ConfigError, match="pace must be a positive number"):
        simulated_latency_ms(report, pace)


# The bytes of the seed-0 suite reports of each policy and mode are pinned
# in the determinism manifest, tests/test_determinism.py.
def test_suite_reruns_byte_identical(tmp_path):
    tasks = [TASKS[1]]
    a = run_suite(tasks, repeats=2, seed=3)
    b = run_suite(tasks, repeats=2, seed=3)
    a_csv, a_json = write_suite_report(a, tmp_path / "a.csv")
    b_csv, b_json = write_suite_report(b, tmp_path / "b.csv")
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()
    payload = json.loads(a_json.read_text())
    assert payload["reference_latencies"] == list(REFERENCE_LATENCIES)
    assert payload["rows"][0]["task_id"] == 1


def test_reference_latency_constants():
    by_name = {row["system"]: row for row in REFERENCE_LATENCIES}
    assert by_name["cradle"] == {"system": "cradle", "latency_s": 61.68, "model_calls": 5}
    assert by_name["varp"] == {"system": "varp", "latency_s": 90.23, "model_calls": 10}
    assert by_name["truncated_reference"] == {
        "system": "truncated_reference",
        "latency_s": 1.85,
        "model_calls": 1,
    }


def test_collect_transcripts_covers_policies():
    transcripts = collect_transcripts([TASKS[1]], seed=0, episodes_per_task=2)
    assert len(transcripts) == 4  # 2 policies x 2 episodes
    keys = [t.episode_key for t in transcripts]
    assert len(set(keys)) == 4  # random episodes use offset seeds
    again = collect_transcripts([TASKS[1]], seed=0, episodes_per_task=2)
    assert [t.report.to_json_dict()["sim_duration_ms"] for t in transcripts] == [
        t.report.to_json_dict()["sim_duration_ms"] for t in again
    ]


@pytest.mark.parametrize("count", [0, -1])
def test_collect_transcripts_rejects_fewer_than_one_episode_per_task(monkeypatch, count):
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(runner, "run_episode", no_episode)
    with pytest.raises(ConfigError, match=f"episodes_per_task must be at least 1, got {count}"):
        collect_transcripts([TASKS[1]], seed=0, episodes_per_task=count)


def test_episode_report_json_rounding():
    report = EpisodeReport(1, "truncated", 0, True, None, 3, 3, 10.98765, 5000)
    assert report.to_json_dict()["mean_emitted_tokens"] == 10.988
