"""Input tracking: coalescing, frame alignment, gating, session files."""

import json
import random
from datetime import datetime, timezone

import pytest

from combatkit.actions import ActionCategory, ActionMode
from combatkit.errors import (
    DanglingPress,
    NoFrames,
    OrderingViolation,
    OrphanRelease,
    ParseError,
    UnencodableMeta,
)
from combatkit.tracker import (
    AlignedSample,
    Edge,
    FrameRecord,
    RawInputEvent,
    SessionRecorder,
    TimedAction,
    TrackSession,
    _iso,
    align_actions_to_frames,
    coalesce_events,
    export_session,
    gate_session,
    import_session,
)


def _edge(binding, edge, t, device="keyboard"):
    return RawInputEvent(device, binding, edge, t)


def test_coalesce_tap_only_always_tap():
    # dodge held well past the tap threshold still coalesces to a tap
    raw = [_edge("space", Edge.DOWN, 100), _edge("space", Edge.UP, 900)]
    out = coalesce_events(raw)
    assert len(out) == 1
    assert out[0].t_ms == 100
    assert out[0].event.category is ActionCategory.DODGE
    assert out[0].event.mode is ActionMode.TAP
    assert out[0].event.duration_ms is None


def test_coalesce_hold_duration_is_edge_gap():
    raw = [_edge("w", Edge.DOWN, 40), _edge("w", Edge.UP, 612)]
    out = coalesce_events(raw)
    assert out[0].event.mode is ActionMode.HOLD
    assert out[0].event.duration_ms == 572
    assert out[0].t_ms == 40


def test_coalesce_zero_length_hold_clamped():
    raw = [_edge("w", Edge.DOWN, 40), _edge("w", Edge.UP, 40)]
    out = coalesce_events(raw)
    assert out[0].event.duration_ms == 1


def test_coalesce_sorts_by_time_then_priority():
    raw = [
        _edge("w", Edge.DOWN, 100),
        _edge("w", Edge.UP, 400),
        _edge("r", Edge.DOWN, 100),
        _edge("r", Edge.UP, 150),
    ]
    out = coalesce_events(raw)
    assert [ta.event.category for ta in out] == [
        ActionCategory.HEAL,
        ActionCategory.MOVE_FWD,
    ]


def test_coalesce_nested_presses_pair_lifo():
    raw = [
        _edge("w", Edge.DOWN, 0),
        _edge("w", Edge.DOWN, 100),
        _edge("w", Edge.UP, 150),
        _edge("w", Edge.UP, 500),
    ]
    out = coalesce_events(raw)
    durations = sorted(ta.event.duration_ms for ta in out)
    assert durations == [50, 500]


def test_coalesce_unmatched_edges():
    with pytest.raises(OrphanRelease):
        coalesce_events([_edge("w", Edge.UP, 10)])
    with pytest.raises(DanglingPress):
        coalesce_events([_edge("w", Edge.DOWN, 10)])


def _frames(*ts):
    return [FrameRecord(i + 1, t) for i, t in enumerate(ts)]


def _tap_at(t):
    from combatkit.actions import ActionEvent

    return TimedAction(ActionEvent.tap(ActionCategory.DODGE), t)


def test_align_attaches_first_frame_at_or_after():
    frames = _frames(0, 125, 250)
    res = align_actions_to_frames([_tap_at(1), _tap_at(125), _tap_at(126)], frames)
    assert [s.frame_index for s in res.samples] == [2, 2, 3]
    assert res.dropped == ()


def test_align_drops_actions_after_last_frame():
    frames = _frames(0, 125)
    res = align_actions_to_frames([_tap_at(125), _tap_at(126)], frames)
    assert [s.frame_index for s in res.samples] == [2]
    assert len(res.dropped) == 1
    assert res.dropped[0].t_ms == 126


def test_align_requires_frames():
    with pytest.raises(NoFrames):
        align_actions_to_frames([_tap_at(0)], [])


def test_align_random_streams_against_scan_oracle():
    # Oracle: linear scan for the first frame timestamp >= action timestamp.
    rng = random.Random(99)
    for _ in range(200):
        frame_ts = sorted(rng.sample(range(0, 5000), rng.randrange(1, 40)))
        frames = _frames(*frame_ts)
        actions = sorted(
            (_tap_at(rng.randrange(0, 5200)) for _ in range(rng.randrange(0, 60))),
            key=lambda ta: ta.t_ms,
        )
        res = align_actions_to_frames(actions, frames)
        got = {(s.action_t_ms, s.frame_index) for s in res.samples}
        expected = set()
        expected_drop = 0
        for ta in actions:
            hit = next((fr.index for fr in frames if fr.t_ms >= ta.t_ms), None)
            if hit is None:
                expected_drop += 1
            else:
                expected.add((ta.t_ms, hit))
        assert got == expected
        assert len(res.dropped) == expected_drop


def test_gate_session_filters_and_is_idempotent():
    session = TrackSession(
        frames=tuple(_frames(0, 100, 200, 300)),
        raw_events=(
            _edge("w", Edge.DOWN, 50),
            _edge("w", Edge.UP, 150),
            _edge("r", Edge.DOWN, 250),
            _edge("r", Edge.UP, 260),
        ),
        active_intervals=((0, 160),),
    )
    gated = gate_session(session)
    assert [fr.t_ms for fr in gated.frames] == [0, 100]
    assert [ev.t_ms for ev in gated.raw_events] == [50, 150]
    # interval bounds are inclusive
    assert gate_session(gated).frames == gated.frames
    # no intervals: passthrough
    open_session = TrackSession(session.frames, session.raw_events)
    assert gate_session(open_session) is open_session


def test_recorder_freeze_sorts_and_indexes():
    rec = SessionRecorder(meta={"game_mode": "BMW"})
    rec.add_frame(0)
    rec.add_frame(125)
    rec.add_event("keyboard", "w", Edge.UP, 300)
    rec.add_event("keyboard", "w", Edge.DOWN, 100)
    session = rec.freeze()
    assert [fr.index for fr in session.frames] == [1, 2]
    assert [ev.t_ms for ev in session.raw_events] == [100, 300]
    assert session.meta["game_mode"] == "BMW"


def test_validate_rejects_bad_orderings():
    with pytest.raises(OrderingViolation):
        TrackSession((FrameRecord(1, 100), FrameRecord(1, 200)), ())
    with pytest.raises(OrderingViolation):
        TrackSession((FrameRecord(1, 200), FrameRecord(2, 100)), ())
    with pytest.raises(OrderingViolation):
        TrackSession((), (), active_intervals=((100, 50),))
    with pytest.raises(OrderingViolation):
        TrackSession((), (), active_intervals=((0, 100), (50, 200)))


def _sample_session():
    rec = SessionRecorder(meta={"epoch_ms": "0", "game_mode": "BMW", "note": "x y"})
    for t in range(0, 800, 100):
        rec.add_frame(t, {"note": f"frame at {t} ms"})
    rec.add_event("keyboard", "space", Edge.DOWN, 40)
    rec.add_event("keyboard", "space", Edge.UP, 90)
    rec.add_event("keyboard", "w", Edge.DOWN, 120)
    rec.add_event("keyboard", "w", Edge.UP, 620)
    rec.add_interval(0, 700)
    return rec.freeze()


def test_export_import_round_trip(tmp_path):
    session = _sample_session()
    out = export_session(session, tmp_path / "sess")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["events.jsonl", "frames.jsonl", "intervals.jsonl", "meta.json"]
    back = import_session(out)
    assert back.frames == session.frames
    assert back.raw_events == session.raw_events
    assert back.active_intervals == session.active_intervals
    assert back.meta == session.meta


def test_export_is_deterministic(tmp_path):
    session = _sample_session()
    a = export_session(session, tmp_path / "a")
    b = export_session(session, tmp_path / "b")
    for name in ("meta.json", "frames.jsonl", "events.jsonl", "intervals.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _iso_by_datetime(t_ms, epoch_ms):
    """The reference: datetime's formatting of the float seconds."""
    dt = datetime.fromtimestamp((epoch_ms + t_ms) / 1000.0, tz=timezone.utc)
    return dt.isoformat(timespec="milliseconds")


def test_iso_matches_datetime_formatting():
    # transcripts stamp from epoch_ms 0, a live capture near 1.7e12; sums
    # run negative before 1970 and cross day and year boundaries
    pairs = [(0, 0), (-1, 0), (-1000, 0), (999, 0), (86_399_999, 0), (-86_400_001, 0),
             (0, 1_700_000_000_000), (-1_700_000_000_001, 1_700_000_000_000)]
    rng = random.Random(20)
    for _ in range(5000):
        epoch_ms = rng.choice((0, 1_700_000_000_000, rng.randrange(-2**41, 2**41)))
        pairs.append((rng.choice((rng.randrange(-10**6, 10**6), rng.randrange(-2**40, 2**40))),
                      epoch_ms))
    assert [_iso(t, e) for t, e in pairs] == [_iso_by_datetime(t, e) for t, e in pairs]
    # exact where the float path loses a millisecond, and years 1-9999 only
    assert _iso(253_402_300_799_999, 0) == "9999-12-31T23:59:59.999+00:00"
    assert _iso(0, -62_135_596_800_000) == "0001-01-01T00:00:00.000+00:00"
    for t_ms in (253_402_300_800_000, -62_135_596_800_001, 10**30):
        with pytest.raises(ValueError):
            _iso(t_ms, 0)


def test_import_reports_file_and_line(tmp_path):
    session = _sample_session()
    out = export_session(session, tmp_path / "sess")
    events = out / "events.jsonl"
    lines = events.read_text().splitlines()
    lines[1] = "{not json"
    events.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        import_session(out)
    assert "events.jsonl" in str(err.value)
    assert "2" in str(err.value)


def test_import_refuses_a_path_that_is_not_a_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope"):
        import_session(tmp_path / "nope")
    (tmp_path / "meta.json").write_text('{"a": "b"}\n')
    with pytest.raises(NotADirectoryError, match="meta.json"):
        import_session(tmp_path / "meta.json")


@pytest.mark.parametrize(
    "name", ["meta.json", "frames.jsonl", "events.jsonl", "intervals.jsonl"]
)
def test_import_requires_all_four_files(tmp_path, name):
    out = export_session(_sample_session(), tmp_path / "sess")
    (out / name).unlink()
    with pytest.raises(FileNotFoundError, match=name):
        import_session(out)


def test_meta_is_a_json_object_of_strings(tmp_path):
    out = export_session(_sample_session(), tmp_path / "sess")
    assert (out / "meta.json").read_text(encoding="utf-8") == (
        '{\n  "epoch_ms": "0",\n  "game_mode": "BMW",\n  "note": "x y"\n}\n'
    )


@pytest.mark.parametrize(
    "text, reason",
    [
        ("just a line without separator\n", "bad JSON: Expecting value"),
        ('["epoch_ms", "0"]\n', "expected a JSON object"),
        ('"epoch_ms=0"\n', "expected a JSON object"),
        ('{"epoch_ms": 5000}\n', "field 'epoch_ms' is not a string: 5000"),
        ('{\n  "epoch_ms": "0",\n  "note": null\n}\n', "field 'note' is not a string: None"),
        ('{"note": {"a": "b"}}\n', "field 'note' is not a string: {'a': 'b'}"),
        ('\ufeff{"epoch_ms": "5000"}\n',
         "bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"epoch_ms": "5000", "game_mode": "BMW", "epoch_ms": "0"}\n',
         "bad JSON: repeated key 'epoch_ms'"),
    ],
    ids=["not-json", "a-list", "a-string", "an-integer", "null", "an-object", "bom",
         "repeated-key"],
)
def test_import_rejects_malformed_meta(tmp_path, text, reason):
    out = export_session(_sample_session(), tmp_path / "sess")
    meta = out / "meta.json"
    meta.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        import_session(out)
    assert (err.value.path, err.value.line, err.value.reason) == (str(meta), 1, reason)


def test_import_names_the_meta_line_that_is_not_utf8(tmp_path):
    out = export_session(_sample_session(), tmp_path / "sess")
    meta = out / "meta.json"
    meta.write_bytes(meta.read_bytes().replace(b'"x y"', b'"\xff"'))
    with pytest.raises(ParseError) as err:
        import_session(out)
    assert (err.value.path, err.value.line) == (str(meta), 4)
    assert err.value.reason == "not UTF-8: invalid start byte at byte 12"


@pytest.mark.parametrize(
    "meta",
    [
        {"note": "a\nb=c"},
        {"note": "a\u2028b"},
        {"note": "a\rb"},
        {"a=b": "c"},
        {"line\x85sep": "v"},
    ],
)
def test_export_round_trips_meta_with_line_breaks_and_equals_signs(tmp_path, meta):
    session = _sample_session()._replace(meta=meta)
    assert import_session(export_session(session, tmp_path / "sess")).meta == meta


_LAST_MS = 253_402_300_799_999  # 9999-12-31T23:59:59.999
_FIRST_MS = -62_135_596_800_000  # 0001-01-01T00:00:00.000


@pytest.mark.parametrize(
    "epoch_ms, intervals, reason",
    [
        ("abc", ((0, 700),), "is not an integer: 'abc'"),
        ("1.5", ((0, 700),), "is not an integer: '1.5'"),
        (_LAST_MS - 699, ((0, 700),), "puts t_ms 700 outside years 1-9999"),  # the last frame
        (_LAST_MS - 720, ((0, 750),), "puts t_ms 750 outside years 1-9999"),  # an interval end
        (_FIRST_MS - 1, ((0, 700),), "puts t_ms 0 outside years 1-9999"),  # the first frame
    ],
)
def test_export_rejects_an_epoch_it_cannot_date(tmp_path, epoch_ms, intervals, reason):
    session = _sample_session()._replace(meta={"epoch_ms": str(epoch_ms)}, active_intervals=intervals)
    with pytest.raises(UnencodableMeta, match=reason):
        export_session(session, tmp_path / "sess")
    assert not (tmp_path / "sess").exists()


def test_export_dates_times_up_to_the_last_millisecond_of_9999(tmp_path):
    session = _sample_session()._replace(meta={"epoch_ms": str(_LAST_MS - 700)})
    back = import_session(export_session(session, tmp_path / "sess"))
    assert back == session
    last = (tmp_path / "sess" / "intervals.jsonl").read_text()
    assert '"end_iso": "9999-12-31T23:59:59.999+00:00"' in last


def test_export_keeps_equals_signs_in_meta_values(tmp_path):
    session = _sample_session()._replace(meta={"query": "k=v&x=y", "empty": ""})
    assert import_session(export_session(session, tmp_path / "sess")).meta == session.meta


def test_aligned_sample_fields():
    s = AlignedSample(_tap_at(10).event, 10, 3)
    assert (s.action_t_ms, s.frame_index) == (10, 3)


def test_tracker_records_refuse_assignment():
    session = _sample_session()
    tap = _tap_at(10)
    records = (
        session,
        session.frames[0],
        session.raw_events[0],
        tap,
        AlignedSample(tap.event, 10, 3),
        align_actions_to_frames([tap], session.frames),
    )
    for record in records:
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_track_session_replace_and_make_keep_the_order_check():
    session = _sample_session()
    backwards = tuple(reversed(session.frames))
    with pytest.raises(OrderingViolation):
        session._replace(frames=backwards)
    with pytest.raises(OrderingViolation):
        session._replace(active_intervals=((0, 100), (50, 200)))
    with pytest.raises(OrderingViolation):
        TrackSession._make((session.frames, tuple(reversed(session.raw_events)), (), {}))
    assert session._replace(meta=dict(session.meta)) == session
    assert TrackSession._make(session) == session


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("frames.jsonl", "t_ms", "abc"),
        ("frames.jsonl", "index", None),
        ("events.jsonl", "t_ms", "12.5"),
        ("intervals.jsonl", "start_ms", [0]),
        ("intervals.jsonl", "end_ms", float("inf")),
        # JSON values int() would coerce: a float, a numeric string, a bool
        ("frames.jsonl", "t_ms", 100.9),
        ("frames.jsonl", "index", "3"),
        ("frames.jsonl", "t_ms", True),
        ("events.jsonl", "t_ms", False),
    ],
)
def test_import_reports_non_integer_field_with_file_and_line(tmp_path, name, key, value):
    out = export_session(_sample_session(), tmp_path / "sess")
    path = out / name
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[-1][key] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError) as err:
        import_session(out)
    assert (err.value.path, err.value.line) == (str(path), len(rows))
    assert f"field {key!r} is not an integer" in err.value.reason


@pytest.mark.parametrize("key, value", [("device", 5), ("binding", None), ("edge", ["down"])])
def test_import_reports_non_string_field_with_file_and_line(tmp_path, key, value):
    out = export_session(_sample_session(), tmp_path / "sess")
    path = out / "events.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0][key] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError) as err:
        import_session(out)
    assert (err.value.path, err.value.line) == (str(path), 1)
    assert err.value.reason == f"field {key!r} is not a string: {value!r}"


# ----------------------------------------------- gating oracle and bad row fields

def _gated_by_scan(rows, intervals):
    """The per-row rule: keep a row inside any closed interval."""
    return tuple(r for r in rows if any(start <= r.t_ms <= end for start, end in intervals))


def _random_gating_case(rng):
    # small time ranges, so times repeat, intervals touch and rows sit on endpoints
    frame_ts = sorted(rng.choices(range(-3, 40), k=rng.randrange(0, 30)))
    event_ts = sorted(rng.choices(range(-3, 40), k=rng.randrange(0, 30)))
    ends = sorted(rng.choices(range(0, 37), k=2 * rng.randrange(1, 6)))
    intervals = tuple(zip(ends[::2], ends[1::2]))  # zero-length where two ends repeat
    return TrackSession(
        tuple(_frames(*frame_ts)),
        tuple(_edge("w", Edge.DOWN, t) for t in event_ts),
        intervals,
        {"game_mode": "BMW"},
    )


def test_gate_session_matches_the_per_row_rule():
    rng = random.Random(41)
    cases = [
        # touching intervals share the endpoint 5, which a row sits on twice
        TrackSession(tuple(_frames(0, 3, 5, 5, 7, 9, 12)),
                     tuple(_edge("w", Edge.DOWN, t) for t in (-1, 5, 9, 10)),
                     ((0, 5), (5, 9))),
        # zero-length intervals, and rows outside every interval
        TrackSession(tuple(_frames(1, 2, 2, 4, 6, 8)),
                     tuple(_edge("w", Edge.DOWN, t) for t in (2, 3, 8, 8)),
                     ((2, 2), (4, 4), (8, 8))),
        *(_random_gating_case(rng) for _ in range(500)),
    ]
    for session in cases:
        gated = gate_session(session)
        assert gated.frames == _gated_by_scan(session.frames, session.active_intervals)
        assert gated.raw_events == _gated_by_scan(session.raw_events, session.active_intervals)
        assert (gated.active_intervals, gated.meta) == (session.active_intervals, session.meta)
        assert type(gated) is TrackSession
        assert gate_session(gated) == gated


@pytest.mark.parametrize(
    "name, key, value, reason",
    [
        ("frames.jsonl", "index", 2.0, "field 'index' is not an integer: 2.0"),
        ("frames.jsonl", "index", None, "field 'index' is not an integer: None"),
        ("frames.jsonl", "t_ms", "0", "field 't_ms' is not an integer: '0'"),
        ("frames.jsonl", "t_ms", True, "field 't_ms' is not an integer: True"),
        ("frames.jsonl", "t_ms", ..., "missing field 't_ms'"),
        ("events.jsonl", "device", 1, "field 'device' is not a string: 1"),
        ("events.jsonl", "binding", ["w"], "field 'binding' is not a string: ['w']"),
        ("events.jsonl", "edge", {"down": 1}, "field 'edge' is not a string: {'down': 1}"),
        ("events.jsonl", "edge", "sideways", "'sideways' is not a valid Edge"),
        ("events.jsonl", "edge", ..., "missing field 'edge'"),
        ("events.jsonl", "t_ms", 12.5, "field 't_ms' is not an integer: 12.5"),
        ("events.jsonl", "t_ms", False, "field 't_ms' is not an integer: False"),
    ],
)
def test_import_reports_each_bad_row_field_exactly(tmp_path, name, key, value, reason):
    out = export_session(_sample_session(), tmp_path / "sess")
    path = out / name
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    if value is ...:
        del rows[1][key]
    else:
        rows[1][key] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError) as err:
        import_session(out)
    assert (err.value.path, err.value.line, err.value.reason) == (str(path), 2, reason)

