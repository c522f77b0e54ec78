"""Three-stage dataset construction, serialization, split, and files."""

import copy
import json
import pickle
import random
import warnings

import pytest

from combatkit.actions import (
    NO_ACTION_TEXT,
    ActionCategory,
    ActionEvent,
    parse_action_events,
    parse_action_text,
    render_action,
    render_explanation,
)
from combatkit.aot import (
    EOS_TOKEN,
    QUESTION_TEXT,
    TRUNC_TOKEN,
    AlignedSession,
    AoTRecord,
    StageConfig,
    _resample,
    align_session,
    build_frames_aot,
    build_video_aot,
    bundled_stage3_path,
    dataset_stats,
    load_bundled_stage3,
    read_records,
    serialize_stage3,
    split_dataset,
    to_truncated_form,
    write_records,
)
from combatkit.errors import ConfigError, OrderingViolation, ParseError
from combatkit.tracker import (
    AlignmentResult,
    Edge,
    FrameRecord,
    SessionRecorder,
    TimedAction,
    TrackSession,
)


def _session(frame_ts, presses, meta=None):
    """presses: (binding, down_ms, up_ms) triples."""
    rec = SessionRecorder(meta=meta or {"game_mode": "BMW"})
    for t in frame_ts:
        rec.add_frame(t, {"t": t})
    for binding, down, up in presses:
        rec.add_event("keyboard", binding, Edge.DOWN, down)
        rec.add_event("keyboard", binding, Edge.UP, up)
    return rec.freeze()


def test_stage_config_validation():
    with pytest.raises(ConfigError, match="got 0, 10, 4"):
        StageConfig(n=0)
    with pytest.raises(ConfigError, match="got 20, -1, 4"):
        StageConfig(m=-1)
    with pytest.raises(ConfigError, match="m must be at most 1000 frames/sec, got 1001"):
        StageConfig(m=1001)
    assert StageConfig(m=1000).m == 1000
    with pytest.raises(ConfigError, match=r"split_fraction must be inside \(0, 1\), got 1.0"):
        StageConfig(split_fraction=1.0)
    with pytest.raises(ConfigError, match="merge_window_ms cannot be negative, got -5"):
        StageConfig(merge_window_ms=-5)
    cfg = StageConfig()
    assert (cfg.n, cfg.m, cfg.k_frames) == (20, 10, 4)
    assert cfg.split_fraction == 0.95


def test_a_record_derives_its_actions_and_its_stage_layout():
    text = "press r, hold w for 0.25 seconds"
    record = AoTRecord(2, (1,), QUESTION_TEXT, text, "Heal.")
    assert record.actions == parse_action_events(text)
    assert record.serialized == f"[Heal.] [{text}] {EOS_TOKEN}"
    assert to_truncated_form(record).serialized == serialize_stage3(text, "Heal.")
    assert AoTRecord.from_json_dict(record.to_json_dict()) == record
    for stage in (0, 4):
        with pytest.raises(ValueError, match="stage must be 1, 2 or 3"):
            AoTRecord(stage, (1,), QUESTION_TEXT, "press r", "")


def test_aot_records_cannot_be_built_around_their_checks():
    text = "press r, hold w for 0.25 seconds"
    record = AoTRecord(2, (1,), QUESTION_TEXT, text, "Heal.")
    cfg = StageConfig()
    session = _session(list(range(0, 1001, 125)), [("space", 600, 650)])
    aligned = align_session(session)
    result = build_frames_aot(aligned, StageConfig(k_frames=1))
    for rec in (record, cfg, aligned, result):
        for name in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
    # StageConfig's _replace and _make run its check
    with pytest.raises(ConfigError, match="must be positive"):
        cfg._replace(n=0)
    with pytest.raises(ConfigError, match="split_fraction"):
        StageConfig._make((20, 10, 4, 1.5, 0, 50))
    assert cfg._replace(seed=3) == StageConfig(seed=3)
    # an AoTRecord's _replace re-derives actions and serialized, and sets neither
    stage3 = record._replace(stage=3)
    assert stage3 == to_truncated_form(record)
    assert stage3.serialized == serialize_stage3(text, "Heal.")
    tap = record._replace(action_text="press space")
    assert tap.actions == parse_action_events("press space")
    assert tap.serialized == f"[Heal.] [press space] {EOS_TOKEN}"
    with pytest.raises(ValueError, match="stage must be 1, 2 or 3"):
        record._replace(stage=4)
    for derived in ("actions", "serialized"):
        with pytest.raises(ValueError, match="only input fields"):
            record._replace(**{derived: getattr(record, derived)})
    # _make takes the five input fields only
    assert AoTRecord._make(record[:5]) == record
    with pytest.raises(TypeError):
        AoTRecord._make(record)
    for rec in (record, stage3):
        assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))
    if hasattr(copy, "replace"):  # Python 3.13 and later
        assert copy.replace(record, stage=3) == stage3


def test_serialize_stage3_forms():
    s = serialize_stage3("press space", "Step away.")
    assert s == f"[press space] {TRUNC_TOKEN} [Step away.] {EOS_TOKEN}"
    s = serialize_stage3("press space", "")
    assert s == f"[press space] {TRUNC_TOKEN} {EOS_TOKEN}"


def test_align_session_pipeline():
    session = _session(
        range(0, 1000, 125),
        [("space", 40, 90), ("w", 120, 620)],
    )
    aligned = align_session(session)
    assert [ta.t_ms for ta in aligned.actions] == [40, 120]
    assert aligned.actions[1].event.duration_ms == 500
    # dodge at 40 lands on the 125 ms frame (index 2), w at 120 likewise
    assert [s.frame_index for s in aligned.alignment.samples] == [2, 2]


def test_stage1_windows_and_boundaries():
    # 41 frames at 100 ms spacing, n=20 at m=10: two windows, one leftover slot
    frame_ts = list(range(0, 4100, 100))
    session = _session(
        frame_ts,
        [
            ("space", 40, 90),  # window 0
            ("w", 1999, 2100),  # starts in window 0 (t < 2000)
            ("1", 2000, 2050),  # exactly the boundary: window 1
        ],
    )
    records = build_video_aot(align_session(session))
    assert len(records) == 2
    assert all(r.stage == 1 and r.question == QUESTION_TEXT for r in records)
    assert len(records[0].frame_refs) == 20
    assert records[0].frame_refs[0] == 1
    w0 = [ev.category for ev in records[0].actions]
    w1 = [ev.category for ev in records[1].actions]
    assert w0 == [ActionCategory.DODGE, ActionCategory.MOVE_FWD]
    assert w1 == [ActionCategory.IMMOBILIZE]
    assert records[0].serialized.endswith(EOS_TOKEN)
    assert TRUNC_TOKEN not in records[0].serialized


def test_stage1_chronological_not_priority_order():
    # dodge (rank 2) happens after move (rank 7); stage 1 lists by time
    frame_ts = list(range(0, 2000, 100))
    session = _session(frame_ts, [("w", 100, 400), ("space", 900, 950)])
    records = build_video_aot(align_session(session))
    cats = [ev.category for ev in records[0].actions]
    assert cats == [ActionCategory.MOVE_FWD, ActionCategory.DODGE]
    # serialized form: [explanation] [action] <eos>
    assert records[0].serialized == (
        f"[{records[0].explanation}] [{records[0].action_text}] {EOS_TOKEN}"
    )


def test_stage1_empty_window_kept():
    frame_ts = list(range(0, 4000, 100))  # exactly two windows
    session = _session(frame_ts, [("space", 40, 90)])
    records = build_video_aot(align_session(session))
    assert len(records) == 2
    assert records[1].actions == ()
    assert records[1].action_text == "no action"
    assert records[1].serialized == f"[no action] [no action] {EOS_TOKEN}"


def test_stage1_short_session_returns_empty():
    # fewer frame slots than one window: no records and no warning, as stage 2
    session = _session([0, 100, 200], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_video_aot(align_session(session)) == []


def test_stage1_resample_prefers_nearest_frame():
    # 125 ms capture resampled onto a 100 ms grid; equidistant targets
    # keep the earlier frame (the advance requires strictly closer).
    frame_ts = list(range(0, 2550, 125))
    session = _session(frame_ts, [("space", 40, 90)])
    cfg = StageConfig(n=10, m=10)
    records = build_video_aot(align_session(session), cfg)
    refs = records[0].frame_refs
    # grid targets 0,100,...,900; nearest frames: 0,125,250,250,375,500,625,750,750,875
    assert refs == (1, 2, 3, 3, 4, 5, 6, 7, 7, 8)


def test_stage2_history_merge_and_skip():
    frame_ts = list(range(0, 5001, 125))
    session = _session(
        frame_ts,
        [
            ("space", 40, 90),  # only one frame at or before 40: skipped
            ("w", 500, 700),  # anchor of a merged group
            ("space", 540, 560),  # within 50 ms of anchor
            ("1", 551, 580),  # 51 ms after anchor: its own instant
        ],
    )
    result = build_frames_aot(align_session(session))
    assert len(result.skipped) == 1
    assert result.skipped[0].action_t_ms == 40
    assert len(result.records) == 2
    first, second = result.records
    # history = the 4 frames at or before the instant, chronological
    assert first.frame_refs == (2, 3, 4, 5)
    assert [ev.category for ev in first.actions] == [
        ActionCategory.DODGE,
        ActionCategory.MOVE_FWD,
    ]
    assert second.frame_refs == (2, 3, 4, 5)
    assert [ev.category for ev in second.actions] == [ActionCategory.IMMOBILIZE]
    assert first.stage == 2
    assert first.serialized == f"[{first.explanation}] [{first.action_text}] {EOS_TOKEN}"


def test_stage2_dedupes_repeated_category_keeps_earliest():
    # two sequential presses of the same key inside one merge window
    frame_ts = list(range(0, 2001, 125))
    session = _session(frame_ts, [("w", 600, 620), ("w", 640, 940)])
    result = build_frames_aot(align_session(session))
    assert len(result.records) == 1
    actions = result.records[0].actions
    assert len(actions) == 1
    assert actions[0].duration_ms == 20  # the earlier press wins


def test_stage2_explanation_uses_session_mode():
    frame_ts = list(range(0, 2001, 125))
    presses = [("space", 600, 650)]
    bmw = build_frames_aot(
        align_session(_session(frame_ts, presses, meta={"game_mode": "BMW"}))
    ).records[0]
    ssdt = build_frames_aot(
        align_session(_session(frame_ts, presses, meta={"game_mode": "SSDT"}))
    ).records[0]
    assert "dodge(or block in SSDT)" in bmw.explanation
    assert "needs to block to avoid" in ssdt.explanation


def test_truncated_form_reorders_and_is_idempotent():
    frame_ts = list(range(0, 2001, 125))
    session = _session(frame_ts, [("space", 600, 650), ("w", 610, 910)])
    stage2 = build_frames_aot(align_session(session)).records[0]
    stage3 = to_truncated_form(stage2)
    assert type(stage3) is AoTRecord and stage3.stage == 3
    assert stage3.action_text == stage2.action_text
    assert stage3.explanation == stage2.explanation
    assert stage3.serialized == (
        f"[{stage2.action_text}] {TRUNC_TOKEN} [{stage2.explanation}] {EOS_TOKEN}"
    )
    assert to_truncated_form(stage3) == stage3
    # prefix property: everything before the sentinel is the action clause
    head = stage3.serialized.split(TRUNC_TOKEN)[0].strip()
    assert parse_action_text(head).key() == stage2.action_set().key()


def test_truncated_form_rejects_stage1():
    session = _session(list(range(0, 2000, 100)), [("space", 40, 90)])
    record = build_video_aot(align_session(session))[0]
    with pytest.raises(ValueError):
        to_truncated_form(record)


def _dummy_records(n):
    return [
        AoTRecord(
            stage=2,
            frame_refs=(1, 2, 3, 4),
            question=QUESTION_TEXT,
            action_text="no action",
            explanation="no action",
        )
        for _ in range(n)
    ]


def test_split_sizes_round_half_up():
    for n, expected_val in ((100, 5), (10, 1), (9, 0), (30, 2), (0, 0)):
        train, val = split_dataset(_dummy_records(n))
        assert len(val) == expected_val
        assert len(train) + len(val) == n


def test_split_deterministic_and_seed_sensitive():
    records = _dummy_records(0)
    # need distinguishable records for this check
    records = []
    for i in range(40):
        records.append(
            AoTRecord(2, (i,), QUESTION_TEXT, "no action", "x")
        )
    a_train, a_val = split_dataset(records, StageConfig(seed=5))
    b_train, b_val = split_dataset(records, StageConfig(seed=5))
    assert a_train == b_train and a_val == b_val
    c_train, _ = split_dataset(records, StageConfig(seed=6))
    assert c_train != a_train
    # partition: nothing lost, nothing duplicated
    key = lambda r: r.frame_refs
    assert sorted(map(key, a_train + a_val)) == sorted(map(key, records))


def test_write_read_round_trip(tmp_path):
    session = _session(list(range(0, 3001, 125)), [("space", 600, 650), ("w", 700, 1000)])
    records = [to_truncated_form(r) for r in build_frames_aot(align_session(session)).records]
    path = write_records(records, tmp_path / "out.jsonl")
    back = read_records(path)
    assert back == records
    # file is stable json-per-line with sorted keys
    first = json.loads(path.read_text().splitlines()[0])
    assert list(first) == sorted(first)
    assert set(first) == {
        "action_text",
        "explanation",
        "frame_refs",
        "question",
        "serialized",
        "stage",
    }


def test_read_records_reports_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"stage": 2}\n')
    with pytest.raises(ParseError):
        read_records(p)
    p.write_text("{broken\n")
    with pytest.raises(ParseError) as err:
        read_records(p)
    assert "bad JSON" in str(err.value)
    first = bundled_stage3_path().read_text(encoding="utf-8").splitlines()[0]
    for line in ("5", "[]"):
        p.write_text(f"{first}\n{line}\n")
        with pytest.raises(ParseError) as err:
            read_records(p)
        assert (err.value.line, err.value.reason) == (2, "expected a JSON object")


def test_dataset_stats():
    session = _session(list(range(0, 3001, 125)), [("space", 600, 650)])
    records = build_frames_aot(align_session(session)).records
    stats = dataset_stats(records)
    assert stats["records"] == 1
    assert stats["by_stage"] == {"2": 1}
    assert stats["mean_actions"] == 1.0
    assert stats["mean_serialized_tokens"] == len(records[0].serialized.split())
    assert dataset_stats([]) == {
        "records": 0,
        "by_stage": {},
        "mean_actions": 0.0,
        "mean_serialized_tokens": 0.0,
    }


def test_bundled_stage3_dataset():
    records = load_bundled_stage3()
    assert len(records) >= 50
    for r in records:
        assert r.stage == 3
        assert r.serialized.count(TRUNC_TOKEN) == 1
        assert r.serialized.count(EOS_TOKEN) == 1
        assert r.question == QUESTION_TEXT
        # the action clause before the sentinel parses to the record's actions
        head = r.serialized.split(TRUNC_TOKEN)[0].strip()
        assert parse_action_text(head).key() == r.action_set().key()
        assert r.serialized.endswith(EOS_TOKEN)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("action_text", "press banana", "unknown action binding"),
        ("stage", "x", "'stage' is not an integer"),
        # JSON gives these another type; coercing them would corrupt the round trip
        ("stage", 3.7, "'stage' is not an integer"),
        ("stage", True, "'stage' is not an integer"),
        ("frame_refs", [True, "2", 3.5, 4], "'frame_refs' holds a non-integer"),
        ("frame_refs", "1234", "'frame_refs' is not a list"),
        ("question", 7, "'question' is not a string"),
        ("explanation", None, "'explanation' is not a string"),
    ],
)
def test_read_records_reports_bad_field_with_line(tmp_path, field, value, reason):
    lines = bundled_stage3_path().read_text(encoding="utf-8").splitlines()[:3]
    bad = dict(json.loads(lines[1]), **{field: value})
    p = tmp_path / "stage3.jsonl"
    p.write_text("\n".join([lines[0], json.dumps(bad), lines[2]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(p)
    assert (err.value.path, err.value.line) == (str(p), 2)
    assert reason in err.value.reason


# ------------------------------------------------ stage-1 parity oracles

def _resample_by_old_loop(frames, m):
    """The greedy resampling loop as first written, one attribute read per test."""
    if not frames:
        return []
    step = 1000.0 / m
    t0, t_last = frames[0].t_ms, frames[-1].t_ms
    out = []
    i = 0
    slot = 0
    while t0 + slot * step <= t_last + 1e-9:
        target = t0 + slot * step
        while i + 1 < len(frames) and abs(frames[i + 1].t_ms - target) < abs(
            frames[i].t_ms - target
        ):
            i += 1
        out.append(frames[i])
        slot += 1
    return out


def _frame_records(times):
    return tuple(FrameRecord(i + 1, t) for i, t in enumerate(times))


def test_resample_matches_the_greedy_loop_for_every_m():
    rng = random.Random(5)
    # exact ties (targets midway between frames) and repeated times
    fixed = [(0, 100, 200, 300), (0, 0, 10, 20, 20, 20, 30), (5, 5, 5), (7,), (0, 25, 75, 100)]
    for m in range(1, 1001):
        times = sorted(rng.choices(range(0, rng.choice((30, 300))), k=rng.randrange(1, 25)))
        for case in (*fixed, times):
            frames = _frame_records(case)
            assert _resample(frames, m) == _resample_by_old_loop(frames, m), (m, case)


def _video_aot_by_scan(aligned, cfg):
    """Stage 1 as first written: every action tested against every window."""
    frames = aligned.session.frames
    slots = _resample_by_old_loop(frames, cfg.m)
    step = 1000.0 / cfg.m
    t0 = frames[0].t_ms
    context = dict(aligned.session.meta)
    records = []
    for w in range(len(slots) // cfg.n):
        start = t0 + w * cfg.n * step
        end = t0 + (w + 1) * cfg.n * step
        window_actions = tuple(
            ta.event for ta in aligned.actions if start - 1e-9 <= ta.t_ms < end - 1e-9
        )
        refs = tuple(fr.index for fr in slots[w * cfg.n : (w + 1) * cfg.n])
        if window_actions:
            action_text = render_action(window_actions)
            explanation = " ".join(render_explanation([ev], context) for ev in window_actions)
        else:
            action_text = explanation = NO_ACTION_TEXT
        records.append(AoTRecord(1, refs, QUESTION_TEXT, action_text, explanation))
    return records


_EVENTS = (
    ActionEvent.tap(ActionCategory.DODGE),
    ActionEvent.tap(ActionCategory.LIGHT_ATTACK),
    ActionEvent.hold_ms(ActionCategory.MOVE_FWD, 250),
    ActionEvent.hold_ms(ActionCategory.SPRINT, 1),
)


def test_stage1_window_selection_matches_the_scan():
    rng = random.Random(3)
    for _ in range(400):
        m = rng.choice((1, 3, 7, 10, 12, 30, 333, 1000))
        cfg = StageConfig(n=rng.randrange(1, 6), m=m)
        frame_ts = sorted(rng.choices(range(0, 2000), k=rng.randrange(1, 40)))
        step = 1000.0 / m
        # times on window bounds and just beside them, before the first frame and after the last
        bounds = [int(frame_ts[0] + w * cfg.n * step) + d for w in range(6) for d in (-1, 0, 1)]
        action_ts = sorted(rng.choices([*range(-50, 2100), *bounds], k=rng.randrange(0, 30)))
        session = TrackSession(_frame_records(frame_ts), (), (),
                               {"game_mode": rng.choice(("BMW", "SSDT"))})
        actions = tuple(TimedAction(rng.choice(_EVENTS), t) for t in action_ts)
        aligned = AlignedSession(session, actions, AlignmentResult((), ()))
        assert build_video_aot(aligned, cfg) == _video_aot_by_scan(aligned, cfg)


def test_stage1_refuses_actions_out_of_time_order():
    # align_session sorts the actions, but an AlignedSession can be built by hand
    session = _session(list(range(0, 2550, 125)), [("space", 40, 90), ("w", 300, 500)])
    aligned = align_session(session)
    cfg = StageConfig(n=10, m=10)
    assert build_video_aot(aligned, cfg)
    # actions at one time are in time order whatever their order
    tied = tuple(TimedAction(ta.event, 40) for ta in aligned.actions[::-1])
    assert build_video_aot(aligned._replace(actions=tied), cfg)
    with pytest.raises(OrderingViolation, match="stage 1 needs the actions in time order"):
        build_video_aot(aligned._replace(actions=aligned.actions[::-1]), cfg)
