"""Pause-infer-act episode loop, transcripts, session export, and suites.

Each decision cycle: 3 of the episode's last 9 frames are sampled, the
sim clock freezes while the policy answers and the decoder recovers an
action set, then one ``arena.step`` call executes the set tick by tick
until done and appends each new frame to the episode's frame list.
Inference time never leaks into the sim clock, so the world trajectory
does not depend on how long the policy takes to answer.

Episode and suite reports are byte-identical across reruns with the
same seed: their latency is simulated from emitted token counts at a
fixed pace, and the loop reads no clock.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

from .actions import ActionMode, ActionSet
from .arena import (
    FRAME_SAMPLE_WINDOW,
    ArenaConfig,
    ObservationFrame,
    TaskConfig,
    cycle_ms,
    new_arena,
    render_observation,
    sample_frames,
    step,
)
from .decoding import REFERENCE_LATENCIES, DecodeMode, check_pace, decode
from .errors import ActionParseError, ConfigError
from .policies import Policy, RandomPolicy, ScriptedPolicy
from .rows import csv_text, write_report
from .tracker import Edge, SessionRecorder, TrackSession, export_session

__all__ = [
    "CycleRecord",
    "EpisodeReport",
    "EpisodeTranscript",
    "SuiteRow",
    "SuiteReport",
    "DEFAULT_PACE_TOKENS_PER_SECOND",
    "run_episode",
    "simulated_latency_ms",
    "transcript_to_session",
    "run_suite",
    "collect_transcripts",
    "make_policy",
]

DEFAULT_PACE_TOKENS_PER_SECOND = 40.0


class CycleRecord(NamedTuple):
    """One decision cycle of an episode; a named tuple, built once per cycle."""

    cycle: int
    t_ms: int
    actions: ActionSet | None
    emitted_tokens: int
    stop_reason: str


class EpisodeReport(NamedTuple):
    task_id: int
    mode: str
    seed: int
    success: bool
    failure_reason: str | None
    decision_cycles: int
    policy_calls: int
    mean_emitted_tokens: float
    sim_duration_ms: int

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "mean_emitted_tokens": round(self.mean_emitted_tokens, 3)}


class EpisodeTranscript(NamedTuple):
    """Everything needed to rebuild datasets and benchmarks offline."""

    task: TaskConfig
    seed: int
    frames: tuple[ObservationFrame, ...]
    cycles: tuple[CycleRecord, ...]
    action_log: tuple[dict, ...]
    report: EpisodeReport

    @property
    def episode_key(self) -> str:
        return f"t{self.task.task_id}s{self.seed}"


def run_episode(
    task: TaskConfig,
    policy: Policy,
    mode: DecodeMode = DecodeMode.TRUNCATED,
    seed: int = 0,
) -> tuple[EpisodeReport, EpisodeTranscript]:
    """Run one duel to success, defeat, or the cycle cap."""
    state = new_arena(task, seed)
    frames = [render_observation(state)]  # t=0; step appends one every frame interval

    calls_before = policy.call_count
    cycles: list[CycleRecord] = []
    success = False
    failure_reason: str | None = None

    while True:
        if not state.enemy_hp > 0.0:
            success = True
            break
        if not state.player_hp > 0.0:
            failure_reason = "player_defeated"
            break
        if len(cycles) >= ArenaConfig.cycle_cap:
            failure_reason = "cycle_cap"
            break

        if len(frames) < FRAME_SAMPLE_WINDOW:
            # first decision: one run of ticks fills the sampling window
            missing = FRAME_SAMPLE_WINDOW - len(frames)
            step(state, None, missing * ArenaConfig.frame_interval_ms, frames)
        sampled = sample_frames(frames)

        # sim clock pauses here: inference happens between ticks
        decision_t = state.clock_ms
        stream = policy.observe(sampled)
        try:
            result = decode(stream, mode)
            actions: ActionSet | None = result.actions
            # plain reads: the property and Enum.value each run Python code
            emitted = len(result.emitted_tokens)
            stop_reason = result.stop_reason._value_
        except ActionParseError as exc:
            actions = None
            emitted = len(exc.raw_text.split())
            stop_reason = f"parse_error:{exc.stop_reason}"
            state.log("decode_parse_error", raw=exc.raw_text[:120])

        step(state, actions, cycle_ms(actions), frames)

        # tuple.__new__ skips the named tuple's Python-level constructor
        cycles.append(
            tuple.__new__(CycleRecord, (len(cycles) + 1, decision_t, actions, emitted, stop_reason))
        )

    n = len(cycles)
    report = EpisodeReport(
        task_id=task.task_id,
        mode=mode.value,
        seed=seed,
        success=success,
        failure_reason=failure_reason,
        decision_cycles=n,
        policy_calls=policy.call_count - calls_before,
        mean_emitted_tokens=(sum(c.emitted_tokens for c in cycles) / n) if n else 0.0,
        sim_duration_ms=state.clock_ms,
    )
    transcript = EpisodeTranscript(
        task=task,
        seed=seed,
        frames=tuple(frames),
        cycles=tuple(cycles),
        action_log=tuple(state.action_log),
        report=report,
    )
    return report, transcript


# ------------------------------------------------------- session export

def transcript_to_session(transcript: EpisodeTranscript) -> TrackSession:
    """Rebuild the raw input/frame record a tracker would have captured.

    Taps become short down/up pairs, holds keep their exact duration, so
    coalescing the exported session reproduces the commanded events.
    """
    recorder = SessionRecorder(
        meta={
            "epoch_ms": "0",
            "game_mode": transcript.task.game_mode.value,
            "seed": str(transcript.seed),
            "task_id": str(transcript.task.task_id),
            "task_name": transcript.task.name,
        }
    )
    for frame in transcript.frames:
        recorder.add_frame(frame.t_ms, frame.to_payload())
    for cycle in transcript.cycles:
        if cycle.actions is None:
            continue
        for event in cycle.actions.events:
            binding = event.category.binding
            device = "mouse" if "mouse" in binding else "keyboard"
            if event.mode is ActionMode.TAP:
                span = ArenaConfig.tap_press_ms
            else:
                span = event.duration_ms or 1
            recorder.add_event(device, binding, Edge.DOWN, cycle.t_ms)
            recorder.add_event(device, binding, Edge.UP, cycle.t_ms + span)
    recorder.add_interval(0, transcript.report.sim_duration_ms)
    return recorder.freeze()


def export_transcript(transcript: EpisodeTranscript, out_dir: str | Path) -> Path:
    return export_session(transcript_to_session(transcript), out_dir)


# ----------------------------------------------------------------- suite

class SuiteRow(NamedTuple):
    task_id: int
    mode: str
    repeats: int
    success_rate: float
    mean_latency_ms: float
    mean_cycles: float

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "success_rate": round(self.success_rate, 4),
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "mean_cycles": round(self.mean_cycles, 2),
        }


class SuiteReport(NamedTuple):
    policy: str
    seed: int
    pace_tokens_per_second: float
    rows: tuple[SuiteRow, ...]

    def to_csv(self) -> str:
        return csv_text(
            SuiteRow._fields,
            (
                (
                    row.task_id,
                    row.mode,
                    row.repeats,
                    f"{row.success_rate:.4f}",
                    f"{row.mean_latency_ms:.3f}",
                    f"{row.mean_cycles:.2f}",
                )
                for row in self.rows
            ),
        )

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "reference_latencies": list(REFERENCE_LATENCIES),
            "rows": [row.to_json_dict() for row in self.rows],
        }


def episode_seed(base_seed: int, task_id: int, repeat: int) -> int:
    # stable arithmetic derivation; no hashing so reruns match exactly
    return base_seed * 1_000_003 + task_id * 1_009 + repeat


def simulated_latency_ms(report: EpisodeReport, pace_tokens_per_second: float) -> float:
    """An episode's per-decision latency if its tokens streamed at a fixed pace.

    It depends only on emitted token counts, so reports that carry it
    stay independent of host speed. A pace that is not positive is a
    ``ConfigError``.
    """
    check_pace(pace_tokens_per_second)
    return report.mean_emitted_tokens / pace_tokens_per_second * 1000.0


def make_policy(name: str, task: TaskConfig, seed: int) -> Policy:
    if name == "scripted":
        return ScriptedPolicy(game_mode=task.game_mode.value)
    if name == "random":
        return RandomPolicy(seed=seed)
    raise ConfigError(f"unknown policy {name!r} (expected scripted or random)")


def run_suite(
    tasks: Sequence[TaskConfig],
    mode: DecodeMode = DecodeMode.TRUNCATED,
    repeats: int = 10,
    seed: int = 0,
    policy_name: str = "scripted",
    pace_tokens_per_second: float = DEFAULT_PACE_TOKENS_PER_SECOND,
) -> SuiteReport:
    """Run every task `repeats` times and aggregate per-task rows.

    Latency is simulated (emitted tokens at the fixed pace), keeping the
    report independent of host speed; rerunning with the same seed
    yields byte-identical CSV/JSON. Fewer than one repeat or a pace that
    is not positive is a ``ConfigError``, raised before any episode runs.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    check_pace(pace_tokens_per_second)
    rows: list[SuiteRow] = []
    for task in tasks:
        successes = 0
        latency_total = 0.0
        cycles_total = 0.0
        for repeat in range(repeats):
            ep_seed = episode_seed(seed, task.task_id, repeat)
            policy = make_policy(policy_name, task, ep_seed)
            report, _ = run_episode(task, policy, mode, ep_seed)
            successes += int(report.success)
            latency_total += simulated_latency_ms(report, pace_tokens_per_second)
            cycles_total += report.decision_cycles
        rows.append(
            SuiteRow(
                task_id=task.task_id,
                mode=mode.value,
                repeats=repeats,
                success_rate=successes / repeats,
                mean_latency_ms=latency_total / repeats,
                mean_cycles=cycles_total / repeats,
            )
        )
    return SuiteReport(policy_name, seed, pace_tokens_per_second, tuple(rows))


def write_suite_report(report: SuiteReport, out_csv: str | Path) -> tuple[Path, Path]:
    """Write the CSV and its JSON sibling next to each other."""
    return write_report(out_csv, report.to_csv(), report.to_json_dict())


def collect_transcripts(
    tasks: Sequence[TaskConfig],
    seed: int = 0,
    episodes_per_task: int = 1,
) -> list[EpisodeTranscript]:
    """Deterministic transcript corpus for dataset and benchmark builds.

    Each task gets truncated-mode episodes from the scripted and the
    random policy. An ``episodes_per_task`` below 1 is a ``ConfigError``,
    raised before any episode runs.
    """
    if episodes_per_task < 1:
        raise ConfigError(f"episodes_per_task must be at least 1, got {episodes_per_task}")
    transcripts: list[EpisodeTranscript] = []
    for task in tasks:
        for name in ("scripted", "random"):
            for repeat in range(episodes_per_task):
                ep_seed = episode_seed(seed, task.task_id, repeat) + (
                    0 if name == "scripted" else 500_009
                )
                policy = make_policy(name, task, ep_seed)
                _, transcript = run_episode(task, policy, seed=ep_seed)
                transcripts.append(transcript)
    return transcripts
