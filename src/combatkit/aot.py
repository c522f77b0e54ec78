"""Three-stage action-of-thought dataset construction.

Stage 1 summarizes fixed windows of a session's frame stream: every
action falling inside a window, listed chronologically. Stage 2 attaches
each decision instant (simultaneous events merged) to the few frames
just before it. Stage 3 re-serializes stage-2 records so the action
clause comes first, fenced off by a truncation sentinel that lets a
decoder stop before the explanation.

Serialized forms::

    stage 1/2:  [explanation] [action clause] <eos>
    stage 3:    [action clause] <trunc> [explanation] <eos>

where ``<trunc>``/``<eos>`` are the literal sentinels ``TRUNC_TOKEN`` and
``EOS_TOKEN``.
A record derives its serialized form and actions; no builder picks a layout.
"""

from __future__ import annotations

import bisect
import random
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .actions import (
    NO_ACTION_TEXT,
    ActionEvent,
    ActionSet,
    parse_action_events,
    render_action,
    render_explanation,
)
from .errors import ConfigError, OrderingViolation
from .rows import read_rows, typed_field, write_jsonl
from .tracker import (
    AlignedSample,
    AlignmentResult,
    FrameRecord,
    TimedAction,
    TrackSession,
    align_actions_to_frames,
    coalesce_events,
    gate_session,
)

__all__ = [
    "QUESTION_TEXT",
    "TRUNC_TOKEN",
    "EOS_TOKEN",
    "StageConfig",
    "AoTRecord",
    "AlignedSession",
    "FramesAotResult",
    "serialize_stage3",
    "align_session",
    "build_video_aot",
    "build_frames_aot",
    "to_truncated_form",
    "split_dataset",
    "write_records",
    "read_records",
    "dataset_stats",
    "bundled_stage3_path",
    "load_bundled_stage3",
]

QUESTION_TEXT = "Please predict the next actions based on the frame sequence."

TRUNC_TOKEN = "⟨TRUNC⟩"
EOS_TOKEN = "⟨EOS⟩"


class _StageFields(NamedTuple):
    n: int
    m: int
    k_frames: int
    split_fraction: float
    seed: int
    merge_window_ms: int


class StageConfig(_StageFields):
    """Settings of the dataset builders and the train/val split.

    n frames per stage-1 window at m frames/sec (at most 1000), k_frames
    of history per stage-2 record, merge_window_ms to merge
    near-simultaneous actions into one stage-2 decision, and a train
    fraction and seed for splitting. The constructor refuses a value out of range as a
    ``ConfigError``, and ``_make`` and ``_replace`` build through it.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int = 20,
        m: int = 10,
        k_frames: int = 4,
        split_fraction: float = 0.95,
        seed: int = 0,
        merge_window_ms: int = 50,
    ) -> "StageConfig":
        if n <= 0 or m <= 0 or k_frames <= 0:
            raise ConfigError(f"n, m and k_frames must be positive, got {n}, {m}, {k_frames}")
        if m > 1000:
            # Frame times are whole milliseconds, so a finer grid only picks the
            # same frames again; this keeps stage 1 at one slot per millisecond.
            raise ConfigError(f"m must be at most 1000 frames/sec, got {m}")
        if not 0.0 < split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be inside (0, 1), got {split_fraction}")
        if merge_window_ms < 0:
            raise ConfigError(f"merge_window_ms cannot be negative, got {merge_window_ms}")
        return tuple.__new__(cls, (n, m, k_frames, split_fraction, seed, merge_window_ms))

    @classmethod
    def _make(cls, iterable: Iterable) -> "StageConfig":
        return cls(*iterable)


def serialize_stage3(action_text: str, explanation: str) -> str:
    """Action-first serialization with the truncation sentinel."""
    if explanation:
        return f"[{action_text}] {TRUNC_TOKEN} [{explanation}] {EOS_TOKEN}"
    return f"[{action_text}] {TRUNC_TOKEN} {EOS_TOKEN}"


class _AoTFields(NamedTuple):
    stage: int
    frame_refs: tuple[int, ...]
    question: str
    action_text: str
    explanation: str
    actions: tuple[ActionEvent, ...]
    serialized: str


# The fields a record is built from; the rest are derived from them.
_AOT_INPUTS = _AoTFields._fields[:5]


class AoTRecord(_AoTFields):
    """One training sample: frames in, action text and explanation out.

    Built from its first five fields; ``actions`` and ``serialized`` are
    derived from them: the events ``action_text`` parses to, and the
    stage's wire form. A stage other than 1, 2 or 3 is a ``ValueError``.
    ``_make`` takes the five input fields, and ``_replace`` changes only
    those and derives the other two afresh.
    """

    __slots__ = ()

    def __new__(
        cls,
        stage: int,
        frame_refs: tuple[int, ...],
        question: str,
        action_text: str,
        explanation: str,
    ) -> "AoTRecord":
        if stage not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2 or 3, got {stage!r}")
        if stage == 3:
            serialized = serialize_stage3(action_text, explanation)
        elif explanation:  # explanation first
            serialized = f"[{explanation}] [{action_text}] {EOS_TOKEN}"
        else:
            serialized = f"[{action_text}] {EOS_TOKEN}"
        return tuple.__new__(
            cls,
            (stage, frame_refs, question, action_text, explanation,
             parse_action_events(action_text), serialized),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "AoTRecord":
        return cls(*iterable)

    def _replace(self, /, **changes) -> "AoTRecord":
        record = self._make(map(changes.pop, _AOT_INPUTS, self))
        if changes:
            raise ValueError(f"only input fields can be replaced, got {sorted(changes)}")
        return record

    __replace__ = _replace  # copy.replace, Python 3.13 and later

    def __getnewargs__(self) -> tuple:
        return self[:len(_AOT_INPUTS)]

    def action_set(self) -> ActionSet:
        return ActionSet(self.actions)

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "frame_refs": list(self.frame_refs),
            "question": self.question,
            "action_text": self.action_text,
            "explanation": self.explanation,
            "serialized": self.serialized,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AoTRecord":
        """A record from its JSON row; a field JSON gave another type is a ``TypeError``,
        and a stored ``serialized`` the record does not derive a ``ValueError``."""
        stage = typed_field(obj, "stage", int)
        frame_refs = typed_field(obj, "frame_refs", list)
        if any(type(ref) is not int for ref in frame_refs):
            raise TypeError(f"field 'frame_refs' holds a non-integer: {frame_refs!r}")
        record = cls(
            stage=stage,
            frame_refs=tuple(frame_refs),
            question=typed_field(obj, "question", str),
            action_text=typed_field(obj, "action_text", str),
            explanation=typed_field(obj, "explanation", str),
        )
        if typed_field(obj, "serialized", str) != record.serialized:
            raise ValueError(f"field 'serialized' is not the stage-{stage} form of the record")
        return record


# ------------------------------------------------------------- alignment

class AlignedSession(NamedTuple):
    """A gated session with its coalesced actions and frame alignment."""

    session: TrackSession
    actions: tuple[TimedAction, ...]
    alignment: AlignmentResult


def align_session(session: TrackSession) -> AlignedSession:
    gated = gate_session(session)
    actions = coalesce_events(gated.raw_events)
    alignment = align_actions_to_frames(actions, gated.frames)
    return AlignedSession(gated, tuple(actions), alignment)


# --------------------------------------------------------------- stage 1

def _resample(frames: Sequence[FrameRecord], m: int) -> list[FrameRecord]:
    """Pick the nearest frame for each slot of an m frames/sec grid.

    One greedy walk over the frame times: each slot starts from the frame
    the slot before took and moves on only while the next frame is
    strictly nearer, so an equidistant slot keeps the earlier frame and
    the walk stops at the first of frames that share a time.
    """
    if not frames:
        return []
    times = [fr.t_ms for fr in frames]
    step = 1000.0 / m
    t0, stop = times[0], times[-1] + 1e-9
    last = len(times) - 1
    out: list[FrameRecord] = []
    i, t = 0, t0
    slot = 0
    target = t0 + slot * step
    while target <= stop:
        while i < last and abs(times[i + 1] - target) < abs(t - target):
            i += 1
            t = times[i]
        out.append(frames[i])
        slot += 1
        target = t0 + slot * step
    return out


def build_video_aot(aligned: AlignedSession, cfg: StageConfig | None = None) -> list[AoTRecord]:
    """Stage 1: one record per full window of n grid slots, stride n.

    Windows partition the resampled timeline; a trailing remainder
    shorter than n slots is discarded, so a session shorter than one
    window gives no records. Windows without actions are kept as
    explicit no-action samples. Each window's actions are taken by
    bisection, so ``aligned.actions`` must be in time order, as
    ``align_session`` gives them; actions out of order are an
    ``OrderingViolation``.
    """
    cfg = cfg or StageConfig()
    frames = aligned.session.frames
    actions = aligned.actions
    action_ts = [ta.t_ms for ta in actions]
    if action_ts != sorted(action_ts):
        raise OrderingViolation("stage 1 needs the actions in time order")
    slots = _resample(frames, cfg.m)
    n_windows = len(slots) // cfg.n
    step = 1000.0 / cfg.m
    t0 = frames[0].t_ms
    context = dict(aligned.session.meta)
    records: list[AoTRecord] = []
    hi = 0
    for w in range(n_windows):
        start = t0 + w * cfg.n * step
        end = t0 + (w + 1) * cfg.n * step
        # the actions with start - 1e-9 <= t_ms < end - 1e-9
        lo = bisect.bisect_left(action_ts, start - 1e-9, hi)
        hi = bisect.bisect_left(action_ts, end - 1e-9, lo)
        window_actions = tuple(ta.event for ta in actions[lo:hi])
        refs = tuple(fr.index for fr in slots[w * cfg.n : (w + 1) * cfg.n])
        if window_actions:
            action_text = render_action(window_actions)
            # chronological, not a set: a window spans many decision instants
            explanation = render_explanation(window_actions, context)
        else:
            action_text = NO_ACTION_TEXT
            explanation = NO_ACTION_TEXT
        records.append(
            AoTRecord(
                stage=1,
                frame_refs=refs,
                question=QUESTION_TEXT,
                action_text=action_text,
                explanation=explanation,
            )
        )
    return records


# --------------------------------------------------------------- stage 2

class FramesAotResult(NamedTuple):
    records: tuple[AoTRecord, ...]
    skipped: tuple[AlignedSample, ...]


def _merge_groups(
    samples: Sequence[AlignedSample], window_ms: int
) -> list[list[AlignedSample]]:
    groups: list[list[AlignedSample]] = []
    for sample in sorted(samples, key=lambda s: s.action_t_ms):
        if groups and sample.action_t_ms - groups[-1][0].action_t_ms <= window_ms:
            groups[-1].append(sample)
        else:
            groups.append([sample])
    return groups


def build_frames_aot(aligned: AlignedSession, cfg: StageConfig | None = None) -> FramesAotResult:
    """Stage 2: one record per decision instant with k_frames of history.

    Simultaneous events (within the merge window of the first event)
    form one action set. Instants too early to have k_frames of history
    are skipped and reported, never silently dropped.
    """
    cfg = cfg or StageConfig()
    frames = aligned.session.frames
    frame_ts = [fr.t_ms for fr in frames]
    context = dict(aligned.session.meta)
    records: list[AoTRecord] = []
    skipped: list[AlignedSample] = []
    for group in _merge_groups(aligned.alignment.samples, cfg.merge_window_ms):
        anchor_t = group[0].action_t_ms
        # history = the k_frames most recent frames at or before the instant
        hi = bisect.bisect_right(frame_ts, anchor_t)
        if hi < cfg.k_frames:
            skipped.extend(group)
            continue
        refs = tuple(fr.index for fr in frames[hi - cfg.k_frames : hi])
        events: list[ActionEvent] = []
        seen = set()
        for sample in group:
            if sample.action.category in seen:
                continue
            seen.add(sample.action.category)
            events.append(sample.action)
        action_set = ActionSet(tuple(events))
        action_text = render_action(action_set)
        explanation = render_explanation(action_set, context) or NO_ACTION_TEXT
        records.append(
            AoTRecord(
                stage=2,
                frame_refs=refs,
                question=QUESTION_TEXT,
                action_text=action_text,
                explanation=explanation,
            )
        )
    return FramesAotResult(tuple(records), tuple(skipped))


# --------------------------------------------------------------- stage 3

def to_truncated_form(record: AoTRecord) -> AoTRecord:
    """Reorder a stage-2 record to action-first truncated form.

    Idempotent on stage-3 records.
    """
    if record.stage not in (2, 3):
        raise ValueError(f"truncated form applies to stage 2/3 records, got stage {record.stage}")
    return AoTRecord(
        3, record.frame_refs, record.question, record.action_text, record.explanation
    )


# ------------------------------------------------------------------ split

def split_dataset(
    records: Sequence[AoTRecord], cfg: StageConfig | None = None
) -> tuple[list[AoTRecord], list[AoTRecord]]:
    """Deterministic seeded shuffle, then train/validation partition.

    The validation side gets round(0.05 * N) records (half-up), the rest
    train. Same seed, same partition.
    """
    cfg = cfg or StageConfig()
    indices = list(range(len(records)))
    random.Random(cfg.seed).shuffle(indices)
    n_val = int(len(records) * (1.0 - cfg.split_fraction) + 0.5)
    val = [records[i] for i in indices[:n_val]]
    train = [records[i] for i in indices[n_val:]]
    return train, val


# --------------------------------------------------------------------- IO

def write_records(records: Iterable[AoTRecord], path: str | Path) -> Path:
    return write_jsonl(path, (record.to_json_dict() for record in records))


def read_records(path: str | Path) -> list[AoTRecord]:
    """The records of a JSONL file; a bad line or record is a ``ParseError`` naming it."""
    return read_rows(path, AoTRecord.from_json_dict)


def dataset_stats(records: Sequence[AoTRecord]) -> dict:
    """Small summary used by the CLI stats command."""
    by_stage: dict[int, int] = {}
    action_counts: list[int] = []
    token_counts: list[int] = []
    for record in records:
        by_stage[record.stage] = by_stage.get(record.stage, 0) + 1
        action_counts.append(len(record.actions))
        token_counts.append(len(record.serialized.split()))
    total = len(records)
    return {
        "records": total,
        "by_stage": {str(k): by_stage[k] for k in sorted(by_stage)},
        "mean_actions": (sum(action_counts) / total) if total else 0.0,
        "mean_serialized_tokens": (sum(token_counts) / total) if total else 0.0,
    }


def bundled_stage3_path() -> Path:
    """Location of the truncation-format dataset shipped with the package."""
    # Beside this module, as importlib.resources finds it in an unzipped package;
    # importing importlib.resources loads inspect and ast on Python 3.12 and later.
    return Path(__file__).with_name("data") / "stage3_sample.jsonl"


def load_bundled_stage3() -> list[AoTRecord]:
    return read_records(bundled_stage3_path())
