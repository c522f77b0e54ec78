"""Command-line entry point: one verb per module seam.

Subcommands: ``track {import,align,export}``, ``aot {build,split,stats}``,
``loss check``, ``decode {run,savings}``, ``agent {run,suite}``,
``bench {validate,gen,score}``, ``report``. Flags are long-form only; a
JSON ``--config`` file overrides flag values; ``--seed`` is mandatory
for ``agent`` and ``aot split``.

File outputs are deterministic given the seed: rerunning a subcommand
on identical inputs rewrites byte-identical files, and no subcommand
mutates its inputs. Measured wall-clock numbers appear only on stdout,
never in written reports. A command that writes a CSV report with its
JSON sibling (``--out``) names both files in one line on stderr.
Failures print a machine-readable JSON object to stderr and exit 1;
usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .actions import render_action, render_event
from .aot import (
    StageConfig,
    align_session,
    build_frames_aot,
    build_video_aot,
    bundled_stage3_path,
    dataset_stats,
    read_records,
    split_dataset,
    to_truncated_form,
    write_records,
)
from .arena import iter_tasks, load_task_configs
from .bench import (
    CANONICAL_COUNTS,
    Category,
    generate_synthetic,
    read_items,
    read_predictions,
    score,
    validate_dataset,
    write_items,
)
from .decoding import (
    DEFAULT_TOKEN_BUDGET,
    DecodeMode,
    TokenStream,
    decode,
    token_savings_report,
)
from .errors import CombatkitError, ConfigError, EmptyDataset, MissingDependency, ParseError
from .rows import csv_text, json_text, write_jsonl, write_report
from .runner import (
    DEFAULT_PACE_TOKENS_PER_SECOND,
    REFERENCE_LATENCIES,
    collect_transcripts,
    export_transcript,
    make_policy,
    run_episode,
    run_suite,
    simulated_latency_ms,
    write_suite_report,
)
from .tracker import export_session, import_session

__all__ = ["build_parser", "main"]


def __getattr__(name: str):
    """Import ``combatkit.loss``, and so numpy, the first time ``gradient_check_rows`` is read.

    Only ``loss check`` needs numpy, so every other command starts without
    it. The function is then stored as this module's attribute, where
    ``_cmd_loss_check`` looks it up on each call.
    """
    if name != "gradient_check_rows":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        from .loss import gradient_check_rows
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise MissingDependency("loss check needs numpy, which is not installed") from None
    globals()[name] = gradient_check_rows
    return gradient_check_rows


def _print_json(obj) -> None:
    sys.stdout.write(json_text(obj))


def _fail(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _require_path(p: str | Path) -> Path:
    path = Path(p)
    if not path.exists():
        raise FileNotFoundError(f"path not found: {path}")
    return path


def _read_json_object(p: str | Path) -> dict:
    """A file holding one JSON object; anything else is a ``ParseError`` naming the file."""
    path = _require_path(p)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, f"bad JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(str(path), 1, "expected a JSON object")
    return obj


def _csv_path(out: str | Path) -> Path:
    """``out`` as a report's CSV path; ``write_report`` puts the JSON beside it.

    A final ``.csv`` or ``.json`` is replaced and any other suffix kept, so
    ``run.v2.csv`` and ``run.v2`` both give ``run.v2.csv``.
    """
    base = Path(out)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return base.with_name(base.name + ".csv")


def _note_written(paths: tuple[Path, Path]) -> None:
    """Name a written report's CSV and JSON on stderr; stdout carries the result."""
    sys.stderr.write(f"wrote {paths[0]} and {paths[1]}\n")


def _command_parser(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The (sub)parser that parsed ``args``, found by following the chosen commands."""
    while True:
        sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            return parser
        parser = sub.choices[getattr(args, sub.dest)]


def _config_value(action: argparse.Action, key: str, value, cfg_path) -> object:
    """Convert a config value as the command line would convert the flag's text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{cfg_path}: setting {key!r} must be a string or a number")
    text = value if isinstance(value, str) else json.dumps(value)
    if action.type is not None:
        try:
            value = action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise ConfigError(
                f"{cfg_path}: setting {key!r}: invalid {action.type.__name__} value {text!r}"
            ) from None
    else:
        value = text
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ConfigError(f"{cfg_path}: setting {key!r}: {value!r} is not one of {choices}")
    return value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Overlay config-file values onto parsed flags (file wins).

    Each value goes through its flag's ``type`` and ``choices``, so a
    config file accepts exactly what the command line would.
    """
    cfg_path = getattr(args, "config", None)
    if not cfg_path:
        return
    try:
        obj = json.loads(_require_path(cfg_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{cfg_path}: not valid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{cfg_path}: top level must be a JSON object")
    actions = {a.dest: a for a in _command_parser(parser, args)._actions}
    for key, value in obj.items():
        dest = key.replace("-", "_")
        if dest == "in":
            dest = "in_path"
        if dest in ("help", "config") or dest not in actions:
            raise ConfigError(f"{cfg_path}: unknown setting {key!r} for this subcommand")
        setattr(args, dest, _config_value(actions[dest], key, value, cfg_path))


# ------------------------------------------------------------------ track

def _cmd_track_import(args) -> int:
    session = import_session(_require_path(args.dir))
    _print_json(
        {
            "frames": len(session.frames),
            "events": len(session.raw_events),
            "intervals": len(session.active_intervals),
            "meta": session.meta,
        }
    )
    return 0


def _cmd_track_align(args) -> int:
    session = import_session(_require_path(args.dir))
    aligned = align_session(session)
    out = write_jsonl(
        Path(args.out) if args.out else Path(args.dir) / "aligned.jsonl",
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
    return 0


def _cmd_track_export(args) -> int:
    session = import_session(_require_path(args.dir))
    out = export_session(session, args.out)
    _print_json({"out": str(out)})
    return 0


# -------------------------------------------------------------------- aot

def _cmd_aot_build(args) -> int:
    session = import_session(_require_path(args.dir))
    cfg = StageConfig(
        n=args.n, m=args.m, k_frames=args.k_frames, merge_window_ms=args.merge_window_ms
    )
    aligned = align_session(session)
    skipped = 0
    if args.stage == 1:
        records = build_video_aot(aligned, cfg)
    else:
        result = build_frames_aot(aligned, cfg)
        records = list(result.records)
        skipped = len(result.skipped)
        if args.stage == 3:
            records = [to_truncated_form(r) for r in records]
    write_records(records, args.out)
    _print_json({"out": args.out, "records": len(records), "skipped": skipped})
    return 0


def _cmd_aot_split(args) -> int:
    records = read_records(_require_path(args.in_path))
    cfg = StageConfig(split_fraction=args.split, seed=args.seed)
    train, val = split_dataset(records, cfg)
    write_records(train, args.train_out)
    write_records(val, args.val_out)
    _print_json(
        {"train": len(train), "val": len(val), "seed": args.seed, "split": args.split}
    )
    return 0


def _cmd_aot_stats(args) -> int:
    _print_json(dataset_stats(read_records(_require_path(args.in_path))))
    return 0


# ------------------------------------------------------------------- loss

_LOSS_COLUMNS = ("component", "analytic_grad_norm", "fd_grad_norm", "max_rel_error")


def _cmd_loss_check(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        # a NaN or infinite tolerance can never fail, and zero or less always does
        raise ConfigError(f"tolerance must be a positive finite number, got {args.tolerance}")
    check = sys.modules[__name__].gradient_check_rows
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
    if args.out:
        _note_written(write_report(_csv_path(args.out), text, {"seed": args.seed, "rows": rows}))
    worst = max(row["max_rel_error"] for row in rows)
    if worst >= args.tolerance:
        _fail(
            {
                "error": "GradientCheckFailed",
                "message": f"max relative error {worst:.3e} >= tolerance {args.tolerance:.1e}",
            }
        )
        return 1
    return 0


# ----------------------------------------------------------------- decode

def _cmd_decode_run(args) -> int:
    records = read_records(_require_path(args.in_path))
    if not records:
        raise EmptyDataset(f"{args.in_path}: no records to decode")
    mode = DecodeMode(args.mode)
    rows = []
    wall_total = 0.0
    for i, record in enumerate(records):
        stream = TokenStream.from_text(record.serialized, args.pace)
        result = decode(stream, mode, args.budget)
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
    return 0


def _cmd_decode_savings(args) -> int:
    source = _require_path(args.in_path) if args.in_path else bundled_stage3_path()
    report = token_savings_report(source)
    payload = report.to_json_dict()
    payload["source"] = str(source)
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
        _note_written(write_report(_csv_path(args.out), text, payload))
    _print_json(payload)
    return 0


# ------------------------------------------------------------------ agent

def _load_tasks(selector: str):
    return iter_tasks(load_task_configs(), selector)


def _cmd_agent_run(args) -> int:
    (task,) = _load_tasks(str(args.task))
    policy = make_policy(args.policy, task, args.seed)
    report, transcript = run_episode(task, policy, DecodeMode(args.mode), args.seed)
    # checks the pace with or without --out, before any file is written
    latency_ms = simulated_latency_ms(report, args.pace_tokens_per_second)
    shown = report.to_json_dict()
    if args.out:
        out = Path(args.out)
        written = dict(shown)
        # wall-clock is measurement noise; files stay seed-deterministic
        written.pop("mean_inference_wall_ms", None)
        written["mean_latency_ms"] = round(latency_ms, 3)
        export_transcript(transcript, out / "session")
        (out / "report.json").write_text(json_text(written), encoding="utf-8")
    _print_json(shown)
    return 0


def _cmd_agent_suite(args) -> int:
    tasks = _load_tasks(args.tasks)
    report = run_suite(
        tasks,
        mode=DecodeMode(args.mode),
        repeats=args.repeats,
        seed=args.seed,
        policy_name=args.policy,
        pace_tokens_per_second=args.pace_tokens_per_second,
    )
    if args.out:
        _note_written(write_suite_report(report, _csv_path(args.out)))
    sys.stdout.write(report.to_csv())
    return 0


# ------------------------------------------------------------------ bench

def _cmd_bench_validate(args) -> int:
    report = validate_dataset(_require_path(args.in_path))
    _print_json(report.to_json_dict())
    if not report.ok:
        _fail(
            {
                "error": "ValidationError",
                "message": f"{args.in_path}: {len(report.violations)} schema violations",
                "violations": [str(v) for v in report.violations],
            }
        )
        return 1
    return 0


def _cmd_bench_gen(args) -> int:
    tasks = _load_tasks(args.tasks)
    transcripts = collect_transcripts(
        tasks, seed=args.seed, episodes_per_task=args.episodes_per_task
    )
    targets = {
        Category.GATHERING: args.gathering,
        Category.COMPREHENSION: args.comprehension,
        Category.REASONING: args.reasoning,
    }
    items = generate_synthetic(transcripts, targets, seed=args.seed)
    write_items(items, args.out)
    _print_json(
        {
            "out": args.out,
            "items": len(items),
            "seed": args.seed,
            "counts": {c.value: targets[c] for c in targets},
        }
    )
    return 0


def _bench_table(report) -> str:
    lines = [f"{'category':<16}{'correct':>8}{'total':>7}{'accuracy':>10}"]
    for name in sorted(report.per_category_total):
        lines.append(
            f"{name:<16}{report.per_category_correct[name]:>8}"
            f"{report.per_category_total[name]:>7}{report.accuracies[name]:>10.2f}"
        )
    lines.append(f"{'macro_average':<16}{'':>8}{'':>7}{report.macro_average:>10.2f}")
    return "\n".join(lines) + "\n"


def _cmd_bench_score(args) -> int:
    items = read_items(_require_path(args.items))
    predictions = read_predictions(_require_path(args.predictions))
    report = score(items, predictions)
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
        _note_written(write_report(_csv_path(args.out), text, report.to_json_dict()))
    return 0


# ----------------------------------------------------------------- report

def _suite_rows(suite: dict, path: str | Path) -> list[dict]:
    """The suite report's rows, each checked for the fields ``report`` prints."""
    where = str(Path(path))
    rows = suite.get("rows", [])
    if not isinstance(rows, list):
        raise ParseError(where, 1, "suite 'rows' must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "task_id" not in row:
            raise ParseError(where, 1, f"suite rows[{i}] must be an object with a task_id")
        for key in ("success_rate", "mean_latency_ms"):
            if not isinstance(row.get(key), (int, float)):
                raise ParseError(where, 1, f"suite rows[{i}].{key} must be a number")
    return rows


def _cmd_report(args) -> int:
    suite = _read_json_object(args.suite)
    suite_rows = _suite_rows(suite, args.suite)
    savings = (
        _read_json_object(args.savings)
        if args.savings
        else token_savings_report(bundled_stage3_path()).to_json_dict()
    )
    bench_part = _read_json_object(args.bench) if args.bench else None
    accuracies = bench_part.get("accuracies", {}) if bench_part else {}
    if not isinstance(accuracies, dict):
        raise ParseError(str(Path(args.bench)), 1, "benchmark 'accuracies' must be an object")
    combined = {
        "suite": suite,
        "token_savings": savings,
        "benchmark": bench_part,
        "reference_latencies": list(REFERENCE_LATENCIES),
    }

    rows = [
        ("suite", "policy", suite.get("policy", "")),
        ("suite", "seed", suite.get("seed", "")),
    ]
    for row in suite_rows:
        rows.append(
            ("suite", f"task_{row['task_id']}_success_rate", f"{row['success_rate']:.4f}")
        )
        rows.append(
            ("suite", f"task_{row['task_id']}_mean_latency_ms", f"{row['mean_latency_ms']:.3f}")
        )
    for key in ("records", "mean_full_tokens", "mean_truncated_tokens", "ratio"):
        if key in savings:
            rows.append(("token_savings", key, savings[key]))
    if bench_part:
        for name, value in sorted(accuracies.items()):
            rows.append(("benchmark", f"{name}_accuracy", value))
        rows.append(("benchmark", "macro_average", bench_part.get("macro_average", "")))
    for ref in REFERENCE_LATENCIES:
        rows.append(("reference", f"{ref['system']}_latency_s", ref["latency_s"]))
        rows.append(("reference", f"{ref['system']}_model_calls", ref["model_calls"]))
    text = csv_text(("section", "metric", "value"), rows)

    if args.out:
        _note_written(write_report(_csv_path(args.out), text, combined))
    sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file whose settings override flags")

    parser = argparse.ArgumentParser(
        prog="combatkit",
        description="Combat imitation toolkit: tracking, datasets, loss checks, agents, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="input tracking sessions").add_subparsers(
        dest="subcommand", required=True
    )
    p = track.add_parser("import", parents=[common], help="validate a session directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_track_import)
    p = track.add_parser("align", parents=[common], help="coalesce and frame-align actions")
    p.add_argument("--dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_track_align)
    p = track.add_parser("export", parents=[common], help="re-export in canonical form")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_track_export)

    stage = StageConfig()
    aot_sub = sub.add_parser("aot", help="dataset construction").add_subparsers(
        dest="subcommand", required=True
    )
    p = aot_sub.add_parser("build", parents=[common], help="build stage 1/2/3 records")
    p.add_argument("--dir", required=True)
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=stage.n)
    p.add_argument("--m", type=int, default=stage.m)
    p.add_argument("--k-frames", type=int, default=stage.k_frames)
    p.add_argument("--merge-window-ms", type=int, default=stage.merge_window_ms)
    p.set_defaults(func=_cmd_aot_build)
    p = aot_sub.add_parser("split", parents=[common], help="seeded train/val partition")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--val-out", required=True)
    p.add_argument("--split", type=float, default=stage.split_fraction)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_aot_split)
    p = aot_sub.add_parser("stats", parents=[common], help="dataset summary")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=_cmd_aot_stats)

    loss_sub = sub.add_parser("loss", help="loss numerics").add_subparsers(
        dest="subcommand", required=True
    )
    p = loss_sub.add_parser("check", parents=[common], help="gradient check table (CSV)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_loss_check)

    dec = sub.add_parser("decode", help="streaming decode").add_subparsers(
        dest="subcommand", required=True
    )
    p = dec.add_parser("run", parents=[common], help="decode each record in a dataset")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--mode", choices=("truncated", "full"), default="truncated")
    p.add_argument("--budget", type=int, default=DEFAULT_TOKEN_BUDGET)
    p.add_argument("--pace", type=float, default=None, help="tokens per second pacing")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode_run)
    p = dec.add_parser("savings", parents=[common], help="token savings of truncation")
    p.add_argument("--in", dest="in_path", default=None, help="default: bundled dataset")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode_savings)

    agent = sub.add_parser("agent", help="combat episodes").add_subparsers(
        dest="subcommand", required=True
    )
    p = agent.add_parser("run", parents=[common], help="one episode on one task")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--mode", choices=("truncated", "full"), default="truncated")
    p.add_argument("--policy", choices=("scripted", "random"), default="scripted")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pace-tokens-per-second", type=float, default=DEFAULT_PACE_TOKENS_PER_SECOND)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_agent_run)
    p = agent.add_parser("suite", parents=[common], help="all tasks x repeats")
    p.add_argument("--tasks", default="all")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--mode", choices=("truncated", "full"), default="truncated")
    p.add_argument("--policy", choices=("scripted", "random"), default="scripted")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pace-tokens-per-second", type=float, default=DEFAULT_PACE_TOKENS_PER_SECOND)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_agent_suite)

    bench_sub = sub.add_parser("bench", help="combat-understanding benchmark").add_subparsers(
        dest="subcommand", required=True
    )
    p = bench_sub.add_parser("validate", parents=[common], help="schema and volume check")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=_cmd_bench_validate)
    p = bench_sub.add_parser("gen", parents=[common], help="synthesize items from episodes")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tasks", default="all")
    p.add_argument("--episodes-per-task", type=int, default=2)
    p.add_argument("--gathering", type=int, default=CANONICAL_COUNTS[Category.GATHERING])
    p.add_argument(
        "--comprehension", type=int, default=CANONICAL_COUNTS[Category.COMPREHENSION]
    )
    p.add_argument("--reasoning", type=int, default=CANONICAL_COUNTS[Category.REASONING])
    p.set_defaults(func=_cmd_bench_gen)
    p = bench_sub.add_parser("score", parents=[common], help="accuracy report")
    p.add_argument("--items", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench_score)

    p = sub.add_parser("report", parents=[common], help="combined overview report")
    p.add_argument("--suite", required=True, help="suite report JSON")
    p.add_argument("--savings", help="savings JSON; default recomputes from bundled data")
    p.add_argument("--bench", help="benchmark score JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except CombatkitError as exc:
        _fail({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except (OSError, ValueError, KeyError) as exc:
        _fail({"error": type(exc).__name__, "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
