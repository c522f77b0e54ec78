"""Span tracer for the benchmark's traced runs.

The tracer wraps library functions where their callers look them up,
for example ``runner.step`` or ``Policy.observe``, so no file of the
package changes. Each call becomes a span with a name, start, end,
parent span and op id, kept in flat arrays in memory until the run
ends, when ``layer_metrics`` folds them into per-layer numbers.

Op ids tell the phases apart: ids >= 0 are timed ops, ``-1 - i`` is
set-up repetition ``i``, and ``CHECK_OP`` marks the benchmark's own
output checks, which no metric counts.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

CHECK_OP = -1_000_000


def _phase(op: int) -> str | None:
    if op >= 0:
        return "timed"
    if op == CHECK_OP:
        return None
    return "setup"


class Tracer:
    """Records nested spans of one thread, plus counters keyed by phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = CHECK_OP
        self.counters: dict[tuple[str | None, str], float] = {}
        self.maxima: dict[tuple[str | None, str], float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def count(self, key: str, value: float = 1) -> None:
        k = (_phase(self.op_id), key)
        self.counters[k] = self.counters.get(k, 0) + value

    def maximum(self, key: str, value: float) -> None:
        k = (_phase(self.op_id), key)
        self.maxima[k] = max(self.maxima.get(k, value), value)

    def wrap(self, fn: Callable, span: str, after=None, on_error=None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``after(tracer, result, args)`` and ``on_error(tracer, exc)`` run
        once the span has ended, so counting stays outside it.
        """
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(self, exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def patch(self, owners: list, attr: str, span: str, after=None, on_error=None) -> None:
        """Replace ``attr`` on every owner by one traced wrapper of it."""
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the same function")
        traced = self.wrap(original, span, after, on_error)
        for owner in owners:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> array:
        """Each span's duration minus the part its child spans cover.

        Spans come from one thread, so children nest inside their parent
        without overlapping each other and their durations simply add.
        """
        covered = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return array("d", (self.end[i] - self.start[i] - covered[i] for i in range(len(covered))))


# ------------------------------------------------------------ installation

def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def _episode_done(t: Tracer, result, args) -> None:
    report = result[0]
    t.count("runner.cycles", report.decision_cycles)
    t.count("runner.policy_calls", report.policy_calls)
    t.count("arena.sim_ms", report.sim_duration_ms)
    if report.failure_reason is not None:
        t.count(f"runner.failure.{report.failure_reason}")


def _decoded(t: Tracer, result, args) -> None:
    from combatkit.decoding import DecodeMode

    mode = args[1] if len(args) > 1 else DecodeMode.TRUNCATED
    t.count("decoding.tokens_emitted", result.emitted_count)
    t.count(f"decoding.tokens_{mode.value}", result.emitted_count)
    t.count(f"decoding.stop.{result.stop_reason.value}")


def _decode_failed(t: Tracer, exc: BaseException) -> None:
    from combatkit.errors import ActionParseError

    if isinstance(exc, ActionParseError):
        t.count("decoding.parse_errors")


def _imported(t: Tracer, result, args) -> None:
    t.count("tracker.bytes_read", _dir_bytes(args[0]))


def _exported(t: Tracer, result, args) -> None:
    t.count("tracker.bytes_written", _dir_bytes(result))


def _aligned(t: Tracer, result, args) -> None:
    t.count("tracker.aligned", len(result.samples))
    t.count("tracker.dropped", len(result.dropped))


def _stage2(t: Tracer, result, args) -> None:
    t.count("aot.skipped", len(result.skipped))


def _generated(t: Tracer, result, args) -> None:
    t.count("bench.items", len(result))


def _scored(t: Tracer, result, args) -> None:
    t.count("bench.unparseable", result.unparseable_predictions)


_COMPONENTS = {"contrastive_pull": "pull", "contrastive_push": "push", "alignment": "alignment"}


def _checked(t: Tracer, result, args) -> None:
    for row in result:
        t.maximum(f"loss.max_rel_error.{_COMPONENTS[row['component']]}", row["max_rel_error"])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from combatkit import aot, bench, cli, decoding, loss, policies, runner, tracker

    p = tracer.patch
    p([runner], "step", "arena.step")
    p([runner], "render_observation", "arena.render")
    p([runner], "run_episode", "runner.episode", after=_episode_done)
    p([policies.Policy], "observe", "policies.observe")
    p([policies.ScriptedPolicy], "decide", "policies.decide")
    p([decoding, runner, cli], "decode", "decoding.decode", after=_decoded, on_error=_decode_failed)
    p([decoding, cli], "token_savings_report", "decoding.savings")
    p([decoding], "parse_action_text", "actions.parse")
    p([aot], "parse_action_events", "actions.parse")
    p([policies, aot, cli], "render_action", "actions.render")
    p([policies, aot], "render_explanation", "actions.render")
    p([tracker, cli], "import_session", "tracker.import", after=_imported)
    p([tracker, runner, cli], "export_session", "tracker.export", after=_exported)
    p([aot], "gate_session", "tracker.align")
    p([aot], "coalesce_events", "tracker.align")
    p([aot], "align_actions_to_frames", "tracker.align", after=_aligned)
    p([aot, cli], "build_video_aot", "aot.stage1")
    p([aot, cli], "build_frames_aot", "aot.stage2", after=_stage2)
    p([aot, cli], "to_truncated_form", "aot.stage3")
    p([aot, cli], "write_records", "aot.write")
    p([aot, cli, decoding], "read_records", "aot.read")
    p([aot, cli], "split_dataset", "aot.split")
    p([bench, cli], "generate_synthetic", "bench.generate", after=_generated)
    p([bench, cli], "validate_dataset", "bench.validate")
    p([bench, cli], "read_items", "bench.read_items")
    p([bench, cli], "score", "bench.score", after=_scored)
    p([bench, cli], "write_items", "bench.io")
    p([bench], "write_predictions", "bench.io")
    p([bench, cli], "read_predictions", "bench.io")
    p([loss], "contrastive_term", "loss.contrastive")
    p([loss, cli], "gradient_check_rows", "loss.check", after=_checked)
    p([cli], "main", "cli.main")


# ----------------------------------------------------------------- metrics

class _View:
    """One phase's spans and counters, divided by that phase's op count."""

    def __init__(self, spans: dict, counters: dict, maxima: dict, units: int):
        self.spans, self.counters, self.maxima = spans, counters, maxima
        self.units = max(units, 1)

    def has(self, source: str) -> bool:
        return source in self.spans or source in self.counters or source in self.maxima

    def calls(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[0] / self.units

    def ms(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[1] * 1000.0 / self.units

    def self_ms(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[2] * 1000.0 / self.units

    def total(self, key: str) -> float:
        return self.counters.get(key, 0) / self.units

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: str  # span or counter whose presence picks the phase
    value: Callable[[_View], float]


def _calls(span):
    return lambda v: v.calls(span)


def _ms(span):
    return lambda v: v.ms(span)


def _total(key):
    return lambda v: v.total(key)


def _max(key):
    return lambda v: v.maxima.get(key, 0.0)


LAYER_METRICS = (
    LayerMetric("arena.step_calls", "count", "lower", "arena.step", _calls("arena.step")),
    LayerMetric("arena.step_ms", "ms", "lower", "arena.step", _ms("arena.step")),
    LayerMetric("arena.us_per_tick", "us", "lower", "arena.step",
                lambda v: v.ratio(v.ms("arena.step") * 1000.0, v.calls("arena.step"))),
    LayerMetric("arena.render_calls", "count", "lower", "arena.render", _calls("arena.render")),
    LayerMetric("arena.render_ms", "ms", "lower", "arena.render", _ms("arena.render")),
    LayerMetric("arena.sim_ms", "ms", "lower", "arena.sim_ms", _total("arena.sim_ms")),
    LayerMetric("runner.episodes", "count", "lower", "runner.episode", _calls("runner.episode")),
    LayerMetric("runner.cycles", "count", "lower", "runner.cycles", _total("runner.cycles")),
    LayerMetric("runner.policy_calls", "count", "lower", "runner.policy_calls",
                _total("runner.policy_calls")),
    LayerMetric("runner.self_ms", "ms", "lower", "runner.episode",
                lambda v: v.self_ms("runner.episode")),
    LayerMetric("runner.failure.player_defeated", "count", "lower", "runner.episode",
                _total("runner.failure.player_defeated")),
    LayerMetric("runner.failure.cycle_cap", "count", "lower", "runner.episode",
                _total("runner.failure.cycle_cap")),
    LayerMetric("policies.observe_calls", "count", "lower", "policies.observe",
                _calls("policies.observe")),
    LayerMetric("policies.observe_ms", "ms", "lower", "policies.observe", _ms("policies.observe")),
    LayerMetric("policies.decide_calls", "count", "lower", "policies.decide",
                _calls("policies.decide")),
    LayerMetric("policies.decide_ms", "ms", "lower", "policies.decide", _ms("policies.decide")),
    LayerMetric("decoding.decode_calls", "count", "lower", "decoding.decode",
                _calls("decoding.decode")),
    LayerMetric("decoding.decode_ms", "ms", "lower", "decoding.decode", _ms("decoding.decode")),
    LayerMetric("decoding.tokens_emitted", "count", "lower", "decoding.decode",
                _total("decoding.tokens_emitted")),
    LayerMetric("decoding.stop.trunc", "count", "higher", "decoding.decode",
                _total("decoding.stop.trunc")),
    LayerMetric("decoding.stop.eos", "count", "lower", "decoding.decode",
                _total("decoding.stop.eos")),
    LayerMetric("decoding.stop.budget", "count", "lower", "decoding.decode",
                _total("decoding.stop.budget")),
    LayerMetric("decoding.parse_errors", "count", "lower", "decoding.decode",
                _total("decoding.parse_errors")),
    # truncated-mode tokens over full-mode tokens; the base is tokens_full
    LayerMetric("decoding.token_ratio", "ratio", "lower", "decoding.decode",
                lambda v: v.ratio(v.total("decoding.tokens_truncated"),
                                  v.total("decoding.tokens_full"))),
    LayerMetric("decoding.tokens_full", "count", "lower", "decoding.decode",
                _total("decoding.tokens_full")),
    LayerMetric("actions.parse_calls", "count", "lower", "actions.parse", _calls("actions.parse")),
    LayerMetric("actions.parse_ms", "ms", "lower", "actions.parse", _ms("actions.parse")),
    LayerMetric("actions.render_calls", "count", "lower", "actions.render",
                _calls("actions.render")),
    LayerMetric("actions.render_ms", "ms", "lower", "actions.render", _ms("actions.render")),
    LayerMetric("tracker.import_ms", "ms", "lower", "tracker.import", _ms("tracker.import")),
    LayerMetric("tracker.export_ms", "ms", "lower", "tracker.export", _ms("tracker.export")),
    LayerMetric("tracker.align_ms", "ms", "lower", "tracker.align", _ms("tracker.align")),
    LayerMetric("tracker.bytes_read", "B", "lower", "tracker.bytes_read",
                _total("tracker.bytes_read")),
    LayerMetric("tracker.bytes_written", "B", "lower", "tracker.bytes_written",
                _total("tracker.bytes_written")),
    LayerMetric("tracker.aligned", "count", "higher", "tracker.aligned", _total("tracker.aligned")),
    LayerMetric("tracker.dropped", "count", "lower", "tracker.aligned", _total("tracker.dropped")),
    LayerMetric("aot.stage1_ms", "ms", "lower", "aot.stage1", _ms("aot.stage1")),
    LayerMetric("aot.stage2_ms", "ms", "lower", "aot.stage2", _ms("aot.stage2")),
    LayerMetric("aot.stage3_ms", "ms", "lower", "aot.stage3", _ms("aot.stage3")),
    LayerMetric("aot.records", "count", "higher", "aot.stage3", _calls("aot.stage3")),
    LayerMetric("aot.skipped", "count", "lower", "aot.stage2", _total("aot.skipped")),
    LayerMetric("aot.write_ms", "ms", "lower", "aot.write", _ms("aot.write")),
    LayerMetric("aot.read_ms", "ms", "lower", "aot.read", _ms("aot.read")),
    LayerMetric("aot.split_ms", "ms", "lower", "aot.split", _ms("aot.split")),
    LayerMetric("bench.generate_ms", "ms", "lower", "bench.generate", _ms("bench.generate")),
    LayerMetric("bench.items", "count", "higher", "bench.generate", _total("bench.items")),
    LayerMetric("bench.validate_ms", "ms", "lower", "bench.validate", _ms("bench.validate")),
    LayerMetric("bench.read_items_ms", "ms", "lower", "bench.read_items", _ms("bench.read_items")),
    LayerMetric("bench.score_ms", "ms", "lower", "bench.score", _ms("bench.score")),
    LayerMetric("bench.unparseable", "count", "lower", "bench.score", _total("bench.unparseable")),
    LayerMetric("loss.contrastive_evals", "count", "lower", "loss.contrastive",
                _calls("loss.contrastive")),
    LayerMetric("loss.check_ms", "ms", "lower", "loss.check", _ms("loss.check")),
    LayerMetric("loss.max_rel_error.pull", "ratio", "lower", "loss.max_rel_error.pull",
                _max("loss.max_rel_error.pull")),
    LayerMetric("loss.max_rel_error.push", "ratio", "lower", "loss.max_rel_error.push",
                _max("loss.max_rel_error.push")),
    LayerMetric("loss.max_rel_error.alignment", "ratio", "lower", "loss.max_rel_error.alignment",
                _max("loss.max_rel_error.alignment")),
    LayerMetric("cli.commands", "count", "lower", "cli.main", _calls("cli.main")),
    LayerMetric("cli.self_ms", "ms", "lower", "cli.main", lambda v: v.self_ms("cli.main")),
)


def span_table(tracer: Tracer) -> dict[str, dict[str, tuple[int, float, float]]]:
    """phase -> span name -> (calls, total seconds, self seconds)."""
    self_s = tracer.self_times()
    table: dict[str, dict[str, list]] = {"timed": {}, "setup": {}}
    for i in range(len(self_s)):
        phase = _phase(tracer.op[i])
        if phase is None:
            continue
        row = table[phase].setdefault(tracer.names[tracer.name[i]], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += tracer.end[i] - tracer.start[i]
        row[2] += self_s[i]
    return {phase: {k: tuple(v) for k, v in rows.items()} for phase, rows in table.items()}


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> dict[str, float]:
    """Per-layer values per timed op.

    A layer that does no work in the timed phase (the arena and session
    export on corpus) is reported per set-up repetition instead.
    """
    spans = span_table(tracer)
    views = {}
    for phase, units in (("timed", ops), ("setup", setups)):
        counters = {k: v for (ph, k), v in tracer.counters.items() if ph == phase}
        maxima = {k: v for (ph, k), v in tracer.maxima.items() if ph == phase}
        views[phase] = _View(spans[phase], counters, maxima, units)
    out = {}
    for metric in LAYER_METRICS:
        view = views["timed"] if views["timed"].has(metric.source) else views["setup"]
        out[metric.name] = float(metric.value(view))
    return out
