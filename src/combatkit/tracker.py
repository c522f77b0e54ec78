"""Input tracking: raw edge capture, coalescing, frame alignment, session IO.

A tracked session pairs a frame stream with a raw keyboard/mouse edge
stream on one millisecond clock. Down/up edges coalesce into action
events, and each action is aligned to the first frame at or after it,
the frame whose content the action responds to.

On disk a session is a directory of four files, all read and written
through ``rows``: ``meta.json`` (one JSON object of string values),
``frames.jsonl``, ``events.jsonl``, and ``intervals.jsonl``. Every
timestamp is written both as authoritative integer milliseconds and as
an ISO 8601 string with millisecond precision; exports are canonical so
re-exporting an imported session is byte-identical.
"""

from __future__ import annotations

import bisect
import operator
from datetime import date, timedelta
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from .actions import ActionEvent, binding_to_category
from .errors import (
    DanglingPress,
    NoFrames,
    OrderingViolation,
    OrphanRelease,
    ParseError,
    UnencodableMeta,
)
from .rows import json_text, read_json_object, read_rows, typed_field, write_jsonl

__all__ = [
    "Edge",
    "RawInputEvent",
    "FrameRecord",
    "TrackSession",
    "SessionRecorder",
    "TimedAction",
    "AlignedSample",
    "AlignmentResult",
    "coalesce_events",
    "align_actions_to_frames",
    "gate_session",
    "export_session",
    "import_session",
]

class Edge(Enum):
    DOWN = "down"
    UP = "up"


class RawInputEvent(NamedTuple):
    """One device edge: a key or button going down or up."""

    device: str
    binding: str
    edge: Edge
    t_ms: int


class FrameRecord(NamedTuple):
    """One captured frame; payload is an observation dict or image path."""

    index: int
    t_ms: int
    payload: Any = None


class _TrackSessionFields(NamedTuple):
    frames: tuple[FrameRecord, ...]
    raw_events: tuple[RawInputEvent, ...]
    active_intervals: tuple[tuple[int, int], ...]
    meta: dict[str, str]


class TrackSession(_TrackSessionFields):
    """A recorded session, checked when built: frame indices strictly rise,
    frame and event times never fall, and intervals are sorted, disjoint
    and not inverted. Anything else is an ``OrderingViolation``. ``_make``
    and ``_replace`` build through the same check."""

    __slots__ = ()

    def __new__(
        cls,
        frames: tuple[FrameRecord, ...],
        raw_events: tuple[RawInputEvent, ...],
        active_intervals: tuple[tuple[int, int], ...] = (),
        meta: dict[str, str] | None = None,
    ) -> "TrackSession":
        prev_idx, prev_t = 0, None
        for fr in frames:
            if fr.index <= prev_idx:
                raise OrderingViolation(f"frame index {fr.index} not strictly increasing")
            if prev_t is not None and fr.t_ms < prev_t:
                raise OrderingViolation(f"frame t_ms {fr.t_ms} decreases")
            prev_idx, prev_t = fr.index, fr.t_ms
        prev_t = None
        for ev in raw_events:
            if prev_t is not None and ev.t_ms < prev_t:
                raise OrderingViolation(f"event t_ms {ev.t_ms} decreases")
            prev_t = ev.t_ms
        prev_end = None
        for start, end in active_intervals:
            if end < start:
                raise OrderingViolation(f"interval [{start}, {end}] is inverted")
            if prev_end is not None and start < prev_end:
                raise OrderingViolation("intervals overlap or are unsorted")
            prev_end = end
        meta = {} if meta is None else meta
        return tuple.__new__(cls, (frames, raw_events, active_intervals, meta))

    @classmethod
    def _make(cls, iterable: Iterable) -> "TrackSession":
        return cls(*iterable)


class SessionRecorder:
    """Collects a session's frames, events and intervals as they are produced."""

    def __init__(self, meta: dict[str, str] | None = None):
        self._frames: list[FrameRecord] = []
        self._events: list[RawInputEvent] = []
        self._intervals: list[tuple[int, int]] = []
        self._meta = dict(meta or {})

    def add_frame(self, t_ms: int, payload: Any = None) -> FrameRecord:
        record = FrameRecord(len(self._frames) + 1, t_ms, payload)
        self._frames.append(record)
        return record

    def add_event(self, device: str, binding: str, edge: Edge, t_ms: int) -> None:
        self._events.append(RawInputEvent(device, binding, edge, t_ms))

    def add_interval(self, start_ms: int, end_ms: int) -> None:
        self._intervals.append((start_ms, end_ms))

    def freeze(self) -> TrackSession:
        events = sorted(self._events, key=lambda e: e.t_ms)
        return TrackSession(
            tuple(self._frames),
            tuple(events),
            tuple(sorted(self._intervals)),
            dict(self._meta),
        )


# ------------------------------------------------------------- coalescing

class TimedAction(NamedTuple):
    """A coalesced action stamped at its down edge."""

    event: ActionEvent
    t_ms: int


def coalesce_events(raw: Sequence[RawInputEvent]) -> list[TimedAction]:
    """Pair down/up edges per binding into timestamped action events.

    The category decides tap vs hold, not the press length: tap-only
    categories always become taps, and hold-capable categories always
    carry their held duration. Unmatched edges raise.
    """
    held: dict[str, list[int]] = {}
    out: list[TimedAction] = []
    for ev in raw:
        if ev.edge is Edge.DOWN:
            held.setdefault(ev.binding, []).append(ev.t_ms)
            continue
        stack = held.get(ev.binding)
        if not stack:
            raise OrphanRelease(f"up edge for {ev.binding!r} at {ev.t_ms} with no press")
        down_t = stack.pop()
        category = binding_to_category(ev.binding)
        if category.tap_only:
            action = ActionEvent.tap(category)
        else:
            # Zero-length holds are clamped to 1 ms so the event stays a hold.
            action = ActionEvent.hold_ms(category, max(1, ev.t_ms - down_t))
        out.append(TimedAction(action, down_t))
    for binding, stack in held.items():
        if stack:
            raise DanglingPress(f"{binding!r} pressed at {stack[-1]} and never released")
    out.sort(key=lambda ta: (ta.t_ms, ta.event.category.priority_rank))
    return out


# -------------------------------------------------------------- alignment

class AlignedSample(NamedTuple):
    """An action attached to the first frame at or after it."""

    action: ActionEvent
    action_t_ms: int
    frame_index: int


class AlignmentResult(NamedTuple):
    samples: tuple[AlignedSample, ...]
    dropped: tuple[TimedAction, ...]


def align_actions_to_frames(
    actions: Sequence[TimedAction], frames: Sequence[FrameRecord]
) -> AlignmentResult:
    """Attach each action to the earliest frame whose t_ms >= action t_ms.

    Actions after the last frame cannot be aligned; they are dropped and
    reported rather than silently discarded.
    """
    if not frames:
        raise NoFrames("cannot align against an empty frame list")
    frame_ts = [fr.t_ms for fr in frames]
    samples: list[AlignedSample] = []
    dropped: list[TimedAction] = []
    for ta in actions:
        i = bisect.bisect_left(frame_ts, ta.t_ms)
        if i == len(frames):
            dropped.append(ta)
        else:
            samples.append(AlignedSample(ta.event, ta.t_ms, frames[i].index))
    return AlignmentResult(tuple(samples), tuple(dropped))


_T_MS = operator.attrgetter("t_ms")


def _inside(rows: tuple, intervals: Sequence[tuple[int, int]]) -> tuple:
    """The rows, in time order, whose t_ms lies in one of the sorted, disjoint
    closed ``intervals``: two bisections per interval, and a row on an
    endpoint that two intervals share is taken once."""
    kept: list = []
    lo = 0
    for start, end in intervals:
        lo = bisect.bisect_left(rows, start, lo, key=_T_MS)
        hi = bisect.bisect_right(rows, end, lo, key=_T_MS)
        kept += rows[lo:hi]
        lo = hi
    return tuple(kept)


def gate_session(session: TrackSession) -> TrackSession:
    """Keep only frames and events inside the active intervals.

    The intervals are closed, so a row at an interval's start or end is
    kept, and a row on an endpoint that two touching intervals share is
    kept once. Each stream is taken by bisection over its times, which a
    ``TrackSession`` holds in order. Sessions without intervals pass
    through unchanged. Gating twice is a no-op.
    """
    if not session.active_intervals:
        return session
    intervals = session.active_intervals
    # Rows taken in order from a checked session pass its check again.
    return tuple.__new__(type(session), (
        _inside(session.frames, intervals),
        _inside(session.raw_events, intervals),
        intervals,
        session.meta,
    ))


# ------------------------------------------------------------- session IO

_META_NAME = "meta.json"
_FRAMES_NAME = "frames.jsonl"
_EVENTS_NAME = "events.jsonl"
_INTERVALS_NAME = "intervals.jsonl"


_EPOCH_DATE = date(1970, 1, 1)


@lru_cache(maxsize=256)
def _iso_second(second: int) -> str:
    """``YYYY-MM-DDTHH:MM:SS.`` for ``second`` seconds after 1970-01-01 UTC.

    Cached because a session stamps about eight frames a second. A second
    outside years 1-9999 is a ``ValueError``.
    """
    day, second = divmod(second, 86_400)
    minute, second = divmod(second, 60)
    hour, minute = divmod(minute, 60)
    try:
        day_text = (_EPOCH_DATE + timedelta(days=day)).isoformat()
    except OverflowError:
        raise ValueError(f"day {day} after 1970-01-01 is out of range") from None
    return f"{day_text}T{hour:02d}:{minute:02d}:{second:02d}."


def _iso(t_ms: int, epoch_ms: int) -> str:
    """``epoch_ms + t_ms`` as UTC ISO 8601 with milliseconds and a ``+00:00`` offset.

    Integer arithmetic: the text ``datetime.fromtimestamp(ms / 1000.0,
    timezone.utc).isoformat(timespec="milliseconds")`` gives, but exact
    where that float path drops a millisecond (beyond about 2**42 ms,
    the year 2109).
    """
    second, ms = divmod(epoch_ms + t_ms, 1000)
    return f"{_iso_second(second)}{ms:03d}+00:00"


def _check_meta(session: TrackSession) -> int:
    """The session's ``epoch_ms``; one that is no integer or puts a written
    time outside years 1-9999 is an ``UnencodableMeta``."""
    text = str(session.meta.get("epoch_ms", "0"))
    try:
        epoch_ms = int(text)
    except ValueError:
        raise UnencodableMeta(f"meta value of 'epoch_ms' is not an integer: {text!r}") from None
    # each of the three streams is in time order, so its ends bound its times
    frames, events, intervals = session.frames, session.raw_events, session.active_intervals
    ends = [r.t_ms for r in (*frames[:1], *frames[-1:], *events[:1], *events[-1:])]
    ends += [t for interval in (*intervals[:1], *intervals[-1:]) for t in interval]
    for t_ms in (min(ends, default=0), max(ends, default=0)):
        try:
            _iso(t_ms, epoch_ms)
        except ValueError:
            raise UnencodableMeta(
                f"meta value of 'epoch_ms' puts t_ms {t_ms} outside years 1-9999: {text!r}"
            ) from None
    return epoch_ms


def export_session(session: TrackSession, path: str | Path) -> Path:
    """Write the four-file session directory in canonical byte-stable form.

    The meta is written as a JSON object with each key and value
    stringified. Raises ``UnencodableMeta`` before writing anything when
    ``epoch_ms`` is no integer or dates a written time outside years 1-9999.
    """
    epoch_ms = _check_meta(session)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    meta = {str(k): str(v) for k, v in session.meta.items()}
    (root / _META_NAME).write_text(json_text(meta), encoding="utf-8")

    write_jsonl(
        root / _FRAMES_NAME,
        (
            {
                "index": fr.index,
                "t_ms": fr.t_ms,
                "iso": _iso(fr.t_ms, epoch_ms),
                "payload": fr.payload,
            }
            for fr in session.frames
        ),
    )
    write_jsonl(
        root / _EVENTS_NAME,
        (
            {
                "device": ev.device,
                "binding": ev.binding,
                "edge": ev.edge.value,
                "t_ms": ev.t_ms,
                "iso": _iso(ev.t_ms, epoch_ms),
            }
            for ev in session.raw_events
        ),
    )
    write_jsonl(
        root / _INTERVALS_NAME,
        (
            {
                "start_ms": start,
                "end_ms": end,
                "start_iso": _iso(start, epoch_ms),
                "end_iso": _iso(end, epoch_ms),
            }
            for start, end in session.active_intervals
        ),
    )
    return root


def import_session(path: str | Path) -> TrackSession:
    """Load a session directory. t_ms fields are authoritative; ISO strings
    are regenerated on export rather than trusted. The meta is read by
    ``read_json_object``, rows by ``read_rows``, and both are typed by
    ``typed_field``: a meta value that is not a string is a ``ParseError``
    at line 1. A missing path
    is a ``FileNotFoundError`` and a path that is not a directory a
    ``NotADirectoryError``. All four files must be present; a missing one is
    a ``FileNotFoundError`` naming it."""
    root = Path(path)
    if not root.is_dir():
        kind = NotADirectoryError if root.exists() else FileNotFoundError
        raise kind(f"no session directory at {root}")
    meta_path = root / _META_NAME
    obj = read_json_object(meta_path)
    try:
        meta = {key: typed_field(obj, key, str) for key in obj}
    except TypeError as exc:
        raise ParseError(str(meta_path), 1, str(exc)) from None

    frames = read_rows(
        root / _FRAMES_NAME,
        lambda row: FrameRecord(
            typed_field(row, "index", int), typed_field(row, "t_ms", int), row.get("payload")
        ),
    )
    events = read_rows(
        root / _EVENTS_NAME,
        lambda row: RawInputEvent(
            typed_field(row, "device", str),
            typed_field(row, "binding", str),
            Edge(typed_field(row, "edge", str)),
            typed_field(row, "t_ms", int),
        ),
    )
    intervals = read_rows(
        root / _INTERVALS_NAME,
        lambda row: (typed_field(row, "start_ms", int), typed_field(row, "end_ms", int)),
    )
    return TrackSession(tuple(frames), tuple(events), tuple(intervals), meta)
