"""Command-line entry point: one verb per module seam.

Subcommands: ``track {import,align,export}``, ``aot {build,split,stats}``,
``loss check``, ``decode {run,savings}``, ``agent {run,suite}``,
``bench {validate,gen,score}``, ``report``. Flags are long-form only; a
JSON ``--config`` file overrides flag values; ``--seed`` is mandatory
for ``agent`` and ``aot split``.

One table, ``_VERBS``, gives each verb's group, name, help, handler and
flags. ``main`` builds the groups and the chosen group's verbs from
their names and help texts, and only the chosen verb's flags;
``build_parser`` builds every verb in full. ``--config`` keys are
checked and converted against the same table flags.

Loading this module loads ``errors``, ``rows`` and ``aot`` (whose
``StageConfig`` gives the ``aot`` flag defaults), and with ``aot`` the
``actions`` and ``tracker`` modules. A handler reads each library name
it calls on this module, where one lazy table, ``_HOMES``, serves it
from its home module, imported when the verb first needs it. So ``track``
and ``aot`` load no further module; ``decode`` and ``report`` add
``decoding``; ``agent`` adds ``arena``, ``decoding``, ``policies`` and
``runner``; ``bench`` adds ``bench`` and those four; and only ``loss``
loads ``loss`` and numpy. The table also serves each name the benchmark
tracer (``perfbench/tracing.py``) wraps on this module, as the home
module's own object, so the tracer's identity check and ``uninstall``
hold, and a wrapper it sets here is what the handlers call.

File outputs are deterministic given the seed: rerunning a subcommand
on identical inputs rewrites byte-identical files, and no subcommand
mutates its inputs. Measured wall-clock numbers never reach a written
report; ``decode run``'s ``mean_wall_ms`` is the only one left on
stdout, and ``agent run`` prints exactly the report it writes.

``main`` writes every stderr line; a handler returns the ``(csv, json)``
paths of the report it wrote (``--out``), or ``None``. So a verb's stderr
holds either its ``wrote X.csv and X.json`` note (exit 0) or exactly one
JSON error line (exit 1): a ``CombatkitError`` or ``OSError`` ends that
way, any other exception propagates, and usage errors exit 2. A check
that finds failures (``bench validate``, ``loss check``) raises
``ValidationError`` after its normal output, and names none of the files
it wrote.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

from .aot import StageConfig
from .errors import (
    CombatkitError, ConfigError, EmptyDataset, MissingDependency, ParseError, ValidationError,
)
from .rows import (
    build_rows, csv_text, json_text, read_json_object, typed_field, write_jsonl, write_report,
)

__all__ = ["build_parser", "main"]

# Every library name a handler calls, by the module that defines it.
_HOMES = {
    "actions": ("render_action", "render_event"),
    "aot": ("align_session", "build_frames_aot", "build_video_aot", "bundled_stage3_path",
            "dataset_stats", "read_records", "split_dataset", "to_truncated_form",
            "write_records"),
    "arena": ("iter_tasks", "load_task_configs"),
    "bench": ("CANONICAL_COUNTS", "Category", "generate_synthetic", "read_items",
              "read_predictions", "score", "validate_dataset", "write_items"),
    "decoding": ("DEFAULT_TOKEN_BUDGET", "REFERENCE_LATENCIES", "DecodeMode", "TokenStream",
                 "decode", "token_savings_report"),
    "loss": ("gradient_check_rows",),
    "runner": ("DEFAULT_PACE_TOKENS_PER_SECOND", "collect_transcripts", "export_transcript",
               "make_policy", "run_episode", "run_suite", "simulated_latency_ms",
               "write_suite_report"),
    "tracker": ("export_session", "import_session"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """Serve a library name in ``_HOMES`` from its module, imported on first use;
    a name set on this module, as the tracer sets its wrappers, is not served."""
    try:
        home = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __package__), name)


# Handlers call each library name on this module, so it resolves when the
# verb runs and a wrapper the tracer sets here (not on its home) is called.
_lib = sys.modules[__name__]


def _print_json(obj) -> None:
    sys.stdout.write(json_text(obj))


def _csv_path(out: str | Path) -> Path:
    """``out`` as a report's CSV path; ``write_report`` puts the JSON beside it.

    A final ``.csv`` or ``.json`` is replaced and any other suffix kept, so
    ``run.v2.csv`` and ``run.v2`` both give ``run.v2.csv``.
    """
    base = Path(out)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return base.with_name(base.name + ".csv")


# ------------------------------------------------------------------ track

def _cmd_track_import(args):
    session = _lib.import_session(args.dir)
    _print_json(
        {
            "frames": len(session.frames),
            "events": len(session.raw_events),
            "intervals": len(session.active_intervals),
            "meta": session.meta,
        }
    )


def _cmd_track_align(args):
    session = _lib.import_session(args.dir)
    aligned = _lib.align_session(session)
    render_event = _lib.render_event
    out = write_jsonl(
        args.out,
        (
            {
                "t_ms": sample.action_t_ms,
                "frame_index": sample.frame_index,
                "action": render_event(sample.action),
            }
            for sample in aligned.alignment.samples
        ),
    )
    _print_json(
        {
            "out": str(out),
            "aligned": len(aligned.alignment.samples),
            "dropped": len(aligned.alignment.dropped),
        }
    )


def _cmd_track_export(args):
    session = _lib.import_session(args.dir)
    out = _lib.export_session(session, args.out)
    _print_json({"out": str(out)})


# -------------------------------------------------------------------- aot

def _cmd_aot_build(args):
    session = _lib.import_session(args.dir)
    cfg = StageConfig(
        n=args.n, m=args.m, k_frames=args.k_frames, merge_window_ms=args.merge_window_ms
    )
    aligned = _lib.align_session(session)
    skipped = 0
    if args.stage == 1:
        records = _lib.build_video_aot(aligned, cfg)
    else:
        result = _lib.build_frames_aot(aligned, cfg)
        records = list(result.records)
        skipped = len(result.skipped)
        if args.stage == 3:
            to_truncated_form = _lib.to_truncated_form
            records = [to_truncated_form(r) for r in records]
    _lib.write_records(records, args.out)
    _print_json({"out": args.out, "records": len(records), "skipped": skipped})


def _cmd_aot_split(args):
    records = _lib.read_records(args.in_path)
    cfg = StageConfig(split_fraction=args.split, seed=args.seed)
    train, val = _lib.split_dataset(records, cfg)
    _lib.write_records(train, args.train_out)
    _lib.write_records(val, args.val_out)
    _print_json(
        {"train": len(train), "val": len(val), "seed": args.seed, "split": args.split}
    )


def _cmd_aot_stats(args):
    _print_json(_lib.dataset_stats(_lib.read_records(args.in_path)))


# ------------------------------------------------------------------- loss

_LOSS_COLUMNS = ("component", "analytic_grad_norm", "fd_grad_norm", "max_rel_error")


def _cmd_loss_check(args):
    if not 0.0 < args.tolerance < math.inf:
        # a NaN or infinite tolerance can never fail, and zero or less always does
        raise ConfigError(f"tolerance must be a positive finite number, got {args.tolerance}")
    try:
        check = _lib.gradient_check_rows
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise MissingDependency("loss check needs numpy, which is not installed") from None
    rows = check(seed=args.seed, points=args.points, dim=args.dim, h=args.step)
    text = csv_text(
        _LOSS_COLUMNS,
        (
            (
                row["component"],
                f"{row['analytic_grad_norm']:.6e}",
                f"{row['fd_grad_norm']:.6e}",
                f"{row['max_rel_error']:.3e}",
            )
            for row in rows
        ),
    )
    sys.stdout.write(text)
    report = {"seed": args.seed, "rows": rows}
    written = write_report(_csv_path(args.out), text, report) if args.out else None
    worst = max(row["max_rel_error"] for row in rows)
    if worst >= args.tolerance:
        raise ValidationError(f"max relative error {worst:.3e} >= tolerance {args.tolerance:.1e}")
    return written


# ----------------------------------------------------------------- decode

def _cmd_decode_run(args):
    records = _lib.read_records(args.in_path)
    if not records:
        raise EmptyDataset(f"{args.in_path}: no records to decode")
    mode = _lib.DecodeMode(args.mode)
    budget = _lib.DEFAULT_TOKEN_BUDGET if args.budget is None else args.budget
    from_text, decode, render_action = _lib.TokenStream.from_text, _lib.decode, _lib.render_action
    rows = []
    wall_total = 0.0
    for i, record in enumerate(records):
        result = decode(from_text(record.serialized, args.pace), mode, budget)
        wall_total += result.wall_ms
        rows.append(
            {
                "index": i,
                "mode": mode.value,
                "stop_reason": result.stop_reason.value,
                "emitted_tokens": result.emitted_count,
                "actions": render_action(result.actions),
            }
        )
    if args.out:
        write_jsonl(args.out, rows)
    _print_json(
        {
            "records": len(rows),
            "mode": mode.value,
            "mean_emitted_tokens": sum(r["emitted_tokens"] for r in rows) / len(rows),
            "mean_wall_ms": wall_total / len(rows),
        }
    )


def _cmd_decode_savings(args):
    source = Path(args.in_path) if args.in_path else _lib.bundled_stage3_path()
    report = _lib.token_savings_report(source)
    payload = report.to_json_dict()
    payload["source"] = str(source)
    written = None
    if args.out:
        text = csv_text(
            ("records", "mean_full_tokens", "mean_truncated_tokens", "ratio"),
            [
                (
                    report.records,
                    f"{report.mean_full_tokens:.4f}",
                    f"{report.mean_truncated_tokens:.4f}",
                    f"{report.ratio:.4f}",
                )
            ],
        )
        written = write_report(_csv_path(args.out), text, payload)
    _print_json(payload)
    return written


# ------------------------------------------------------------------ agent

def _load_tasks(selector: str):
    return _lib.iter_tasks(_lib.load_task_configs(), selector)


def _pace(args) -> float:
    """``--pace-tokens-per-second``, checked, or the runner's default pace when it is not given."""
    from .decoding import check_pace  # the tracer wraps no pace check

    pace = args.pace_tokens_per_second
    if pace is None:
        return _lib.DEFAULT_PACE_TOKENS_PER_SECOND
    check_pace(pace)
    return pace


def _cmd_agent_run(args):
    pace = _pace(args)  # refused before the episode runs
    (task,) = _load_tasks(str(args.task))
    policy = _lib.make_policy(args.policy, task, args.seed)
    report, transcript = _lib.run_episode(task, policy, _lib.DecodeMode(args.mode), args.seed)
    payload = report.to_json_dict()
    payload["mean_latency_ms"] = round(_lib.simulated_latency_ms(report, pace), 3)
    if args.out:
        out = Path(args.out)
        _lib.export_transcript(transcript, out / "session")
        (out / "report.json").write_text(json_text(payload), encoding="utf-8")
    _print_json(payload)


def _cmd_agent_suite(args):
    tasks = _load_tasks(args.tasks)
    report = _lib.run_suite(
        tasks,
        mode=_lib.DecodeMode(args.mode),
        repeats=args.repeats,
        seed=args.seed,
        policy_name=args.policy,
        pace_tokens_per_second=_pace(args),
    )
    written = _lib.write_suite_report(report, _csv_path(args.out)) if args.out else None
    sys.stdout.write(report.to_csv())
    return written


# ------------------------------------------------------------------ bench

def _cmd_bench_validate(args):
    report = _lib.validate_dataset(args.in_path)
    _print_json(report.to_json_dict())
    if not report.ok:
        raise ValidationError(f"{args.in_path}: {len(report.violations)} schema violations")


def _cmd_bench_gen(args):
    tasks = _load_tasks(args.tasks)
    transcripts = _lib.collect_transcripts(
        tasks, seed=args.seed, episodes_per_task=args.episodes_per_task
    )
    # each category's count flag is named by its value; unset, it takes the canonical count
    targets = {}
    for category in _lib.Category:
        count = getattr(args, category.value)
        targets[category] = _lib.CANONICAL_COUNTS[category] if count is None else count
    items = _lib.generate_synthetic(transcripts, targets, seed=args.seed)
    _lib.write_items(items, args.out)
    _print_json(
        {
            "out": args.out,
            "items": len(items),
            "seed": args.seed,
            "counts": {c.value: targets[c] for c in targets},
        }
    )


def _bench_table(report) -> str:
    lines = [f"{'category':<16}{'correct':>8}{'total':>7}{'accuracy':>10}"]
    for name in sorted(report.per_category_total):
        lines.append(
            f"{name:<16}{report.per_category_correct[name]:>8}"
            f"{report.per_category_total[name]:>7}{report.accuracies[name]:>10.2f}"
        )
    lines.append(f"{'macro_average':<16}{'':>8}{'':>7}{report.macro_average:>10.2f}")
    return "\n".join(lines) + "\n"


def _cmd_bench_score(args):
    items = _lib.read_items(args.items)
    predictions = _lib.read_predictions(args.predictions)
    report = _lib.score(items, predictions)
    sys.stdout.write(_bench_table(report))
    if args.out:
        rows = [
            (
                name,
                report.per_category_correct[name],
                report.per_category_total[name],
                f"{report.accuracies[name]:.2f}",
            )
            for name in sorted(report.per_category_total)
        ]
        rows.append(("macro_average", "", "", f"{report.macro_average:.2f}"))
        text = csv_text(("category", "correct", "total", "accuracy"), rows)
        return write_report(_csv_path(args.out), text, report.to_json_dict())


# ----------------------------------------------------------------- report

def _suite_lines(row) -> tuple:
    """The two ``report`` lines of a suite report row."""
    if not isinstance(row, dict) or "task_id" not in row:
        raise ValueError("must be an object with a task_id")
    task = f"task_{row['task_id']}"
    return (
        ("suite", f"{task}_success_rate", f"{typed_field(row, 'success_rate', float):.4f}"),
        ("suite", f"{task}_mean_latency_ms", f"{typed_field(row, 'mean_latency_ms', float):.3f}"),
    )


def _cmd_report(args):
    suite = read_json_object(args.suite)
    suite_lines = build_rows(args.suite, suite.get("rows", []), _suite_lines)
    savings = (
        read_json_object(args.savings)
        if args.savings
        else _lib.token_savings_report(_lib.bundled_stage3_path()).to_json_dict()
    )
    bench_part = read_json_object(args.bench) if args.bench else None
    accuracies = bench_part.get("accuracies", {}) if bench_part else {}
    if not isinstance(accuracies, dict):
        raise ParseError(str(Path(args.bench)), 1, "benchmark 'accuracies' must be an object")
    combined = {
        "suite": suite,
        "token_savings": savings,
        "benchmark": bench_part,
        "reference_latencies": list(_lib.REFERENCE_LATENCIES),
    }

    rows = [
        ("suite", "policy", suite.get("policy", "")),
        ("suite", "seed", suite.get("seed", "")),
        *(line for lines in suite_lines for line in lines),
    ]
    for key in ("records", "mean_full_tokens", "mean_truncated_tokens", "ratio"):
        if key in savings:
            rows.append(("token_savings", key, savings[key]))
    if bench_part:
        for name, value in sorted(accuracies.items()):
            rows.append(("benchmark", f"{name}_accuracy", value))
        rows.append(("benchmark", "macro_average", bench_part.get("macro_average", "")))
    for ref in _lib.REFERENCE_LATENCIES:
        rows.append(("reference", f"{ref['system']}_latency_s", ref["latency_s"]))
        rows.append(("reference", f"{ref['system']}_model_calls", ref["model_calls"]))
    text = csv_text(("section", "metric", "value"), rows)

    written = write_report(_csv_path(args.out), text, combined) if args.out else None
    sys.stdout.write(text)
    return written


# ------------------------------------------------------------ verb table

class _Flag(NamedTuple):
    """One long flag, ``--name``. Its ``--config`` key is the name, with
    ``_`` or ``-`` between words."""

    name: str
    type: Callable[[str], object] | None = None
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None
    dest: str | None = None  # None: the name with ``_`` for ``-``


class _Verb(NamedTuple):
    group: str
    name: str | None  # None: the group is the verb itself
    help: str | None
    handler: Callable[[argparse.Namespace], tuple[Path, Path] | None]  # the report it wrote
    flags: tuple[_Flag, ...]


_GROUPS = {
    "track": "input tracking sessions",
    "aot": "dataset construction",
    "loss": "loss numerics",
    "decode": "streaming decode",
    "agent": "combat episodes",
    "bench": "combat-understanding benchmark",
    "report": "combined overview report",
}

_STAGE = StageConfig()
_IN = _Flag("in", required=True, dest="in_path")
_OUT = _Flag("out")
_OUT_REQUIRED = _Flag("out", required=True)
_DIR = _Flag("dir", required=True)
_SEED = _Flag("seed", int, required=True)
_TASKS = _Flag("tasks", default="all")
_MODE = _Flag("mode", default="truncated", choices=("truncated", "full"))
_POLICY = _Flag("policy", default="scripted", choices=("scripted", "random"))
# Left unset, the pace, the decode budget and the bench gen counts take
# their defaults in the handler, from modules the table does not load.
_PACE = _Flag("pace-tokens-per-second", float)

# Keyed by (group, verb name); the order is the order of the help listings.
_VERBS = {(verb.group, verb.name): verb for verb in (
    _Verb("track", "import", "validate a session directory", _cmd_track_import, (_DIR,)),
    _Verb("track", "align", "coalesce and frame-align actions", _cmd_track_align,
          (_DIR, _OUT_REQUIRED)),
    _Verb("track", "export", "re-export in canonical form", _cmd_track_export,
          (_DIR, _OUT_REQUIRED)),
    _Verb("aot", "build", "build stage 1/2/3 records", _cmd_aot_build, (
        _DIR, _Flag("stage", int, choices=(1, 2, 3), required=True), _OUT_REQUIRED,
        _Flag("n", int, _STAGE.n), _Flag("m", int, _STAGE.m),
        _Flag("k-frames", int, _STAGE.k_frames),
        _Flag("merge-window-ms", int, _STAGE.merge_window_ms))),
    _Verb("aot", "split", "seeded train/val partition", _cmd_aot_split, (
        _IN, _Flag("train-out", required=True), _Flag("val-out", required=True),
        _Flag("split", float, _STAGE.split_fraction), _SEED)),
    _Verb("aot", "stats", "dataset summary", _cmd_aot_stats, (_IN,)),
    _Verb("loss", "check", "gradient check table (CSV)", _cmd_loss_check, (
        _Flag("seed", int, 0), _Flag("points", int, 100), _Flag("dim", int, 64),
        _Flag("step", float, 1e-5), _Flag("tolerance", float, 1e-4), _OUT)),
    _Verb("decode", "run", "decode each record in a dataset", _cmd_decode_run, (
        _IN, _MODE, _Flag("budget", int),
        _Flag("pace", float, help="tokens per second pacing"), _OUT)),
    _Verb("decode", "savings", "token savings of truncation", _cmd_decode_savings, (
        _Flag("in", help="default: bundled dataset", dest="in_path"), _OUT)),
    _Verb("agent", "run", "one episode on one task", _cmd_agent_run, (
        _Flag("task", int, required=True), _MODE, _POLICY, _SEED, _PACE, _OUT)),
    _Verb("agent", "suite", "all tasks x repeats", _cmd_agent_suite, (
        _TASKS, _Flag("repeats", int, 10), _MODE, _POLICY, _SEED, _PACE, _OUT)),
    _Verb("bench", "validate", "schema and volume check", _cmd_bench_validate, (_IN,)),
    _Verb("bench", "gen", "synthesize items from episodes", _cmd_bench_gen, (
        _OUT_REQUIRED, _SEED, _TASKS, _Flag("episodes-per-task", int, 2),
        *(_Flag(category, int) for category in ("gathering", "comprehension", "reasoning")))),
    _Verb("bench", "score", "accuracy report", _cmd_bench_score, (
        _Flag("items", required=True), _Flag("predictions", required=True), _OUT)),
    _Verb("report", None, None, _cmd_report, (
        _Flag("suite", required=True, help="suite report JSON"),
        _Flag("savings", help="savings JSON; default recomputes from bundled data"),
        _Flag("bench", help="benchmark score JSON"), _OUT)),
)}


def _add_flags(parser: argparse.ArgumentParser, verb: _Verb) -> None:
    parser.add_argument("--config", help="JSON file whose settings override flags")
    for flag in verb.flags:
        parser.add_argument("--" + flag.name, dest=flag.dest, type=flag.type,
                            default=flag.default, choices=flag.choices,
                            required=flag.required, help=flag.help)


def _parser(group: str | None, name: str | None, full: bool) -> argparse.ArgumentParser:
    """Every group with its help; the verbs of ``group`` by name and help,
    and the flags of verb ``name`` only. ``full`` builds every verb in full."""
    parser = argparse.ArgumentParser(
        prog="combatkit",
        description="Combat imitation toolkit: tracking, datasets, loss checks, agents, benchmarks.",
    )
    groups = parser.add_subparsers(dest="command", required=True)
    for group_name, group_help in _GROUPS.items():
        group_parser = groups.add_parser(group_name, help=group_help)
        if not (full or group_name == group):
            continue
        lone = _VERBS.get((group_name, None))
        if lone is not None:
            _add_flags(group_parser, lone)
            continue
        verbs = group_parser.add_subparsers(dest="subcommand", required=True)
        for verb in _VERBS.values():
            if verb.group == group_name:
                verb_parser = verbs.add_parser(verb.name, help=verb.help)
                if full or verb.name == name:
                    _add_flags(verb_parser, verb)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb with all its flags."""
    return _parser(None, None, full=True)


# ----------------------------------------------------------------- config

def _config_value(flag: _Flag, key: str, value, cfg_path) -> object:
    """Convert a config value as the command line would convert the flag's text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{cfg_path}: setting {key!r} must be a string or a number")
    text = value if isinstance(value, str) else json.dumps(value)
    if flag.type is not None:
        try:
            value = flag.type(text)
        except ValueError:
            raise ConfigError(
                f"{cfg_path}: setting {key!r}: invalid {flag.type.__name__} value {text!r}"
            ) from None
    else:
        value = text
    if flag.choices is not None and value not in flag.choices:
        choices = ", ".join(map(repr, flag.choices))
        raise ConfigError(f"{cfg_path}: setting {key!r}: {value!r} is not one of {choices}")
    return value


def _apply_config(args: argparse.Namespace, verb: _Verb) -> None:
    """Overlay config-file values onto parsed flags (file wins).

    Each key names one of the verb's flags, and each value goes through
    that flag's ``type`` and ``choices``, so a config file accepts exactly
    what the command line would. A file that is not one JSON object is a
    ``ConfigError`` naming the file and line.
    """
    if not args.config:
        return
    cfg_path = args.config
    try:
        obj = read_json_object(cfg_path)
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    flags = {flag.name.replace("-", "_"): flag for flag in verb.flags}
    for key, value in obj.items():
        name = key.replace("-", "_")
        if name not in flags:
            raise ConfigError(f"{cfg_path}: unknown setting {key!r} for this subcommand")
        flag = flags[name]
        setattr(args, flag.dest or name, _config_value(flag, key, value, cfg_path))


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Neither the top level nor a group has a flag that takes a value, so
    # argparse picks the first two words that do not start with "-" as
    # group and verb, or stops first at an invalid choice, whose error
    # reads the same from any parser. Only that verb's flags are built.
    words = [arg for arg in argv if not arg.startswith("-")]
    parser = _parser(*(words + [None, None])[:2], full=False)
    args = parser.parse_args(argv)
    verb = _VERBS[args.command, getattr(args, "subcommand", None)]
    try:
        _apply_config(args, verb)
        written = verb.handler(args)
    except (CombatkitError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    if written:
        sys.stderr.write(f"wrote {written[0]} and {written[1]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
