"""The benchmark's three workloads: suite, corpus and gradcheck.

Each workload is a closed loop with one client in one process. It makes
its inputs from the workload seed, runs its set-up ``SETUPS`` times (the
median is ``setup_s``), then repeats its op until ``seconds`` have passed
and a minimum count is reached (gradcheck: a fixed count of points sized
from ``seconds``), and checks every output it timed. A
``speed.Clock`` times each interval and samples host speed between
units of work. Library functions are called through their module
(``runner.run_suite``, not an imported name), so the tracer's wrappers
see every call. Each workload imports only the modules it drives, so
``peak_rss_mb`` counts what the package itself loads.

Why these workloads:

* suite: the paper's pause-infer-act evaluation loop over the 13-task
  grid. Arena, runner, policies, decoding and actions do all the work;
  tracker, aot, bench and loss do none. Random-policy episodes run to the
  cycle cap and set the tail, and full decoding emits about 6.5 times
  the tokens of truncated decoding.
* corpus: the offline path of ``bench gen`` and the fixture rebuild.
  Tracker, aot, bench and cli read and write files; the arena runs only
  in set-up, and policies appear only as the bench judge.
* gradcheck: the loss gradient check, the largest compute cost and the
  only user of numpy. It bypasses every other layer, and the other two
  workloads bypass it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from combatkit import actions, aot, arena, decoding, runner, tracker

from speed import Clock, Interval
from tracing import CHECK_OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
REFERENCE_SEED = 0
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))

SUITE_GRID = (
    ("scripted", "truncated"),
    ("scripted", "full"),
    ("random", "truncated"),
    ("random", "full"),
)
SUITE_REPEATS = 20
# The slowest 1% of episodes set the p99; passes alternate between two
# seeds so that it rests on 2,080 distinct episodes, not 1,040.
SUITE_SEEDS = 2

CORPUS_EPISODES_PER_TASK = 2
# Job time follows the episodes' length, which varies by about 6% from
# one seed to the next, so jobs rotate over corpora of several seeds.
CORPORA = 4
# Predictions right for the first N items of each category, as the
# committed fixture predictions are; at canonical volumes they score
# 60.83 / 60.29 / 69.71, macro 63.61 (acceptance criterion 8).
FIXTURE_CORRECT = {"gathering": 219, "comprehension": 123, "reasoning": 244}
EXPECTED_SCORE = {
    "gathering": 60.83,
    "comprehension": 60.29,
    "reasoning": 69.71,
    "macro_average": 63.61,
}
_WRONG_CHOICE = {"A": "B", "B": "C", "C": "A"}

GRAD_DIM = 64
GRAD_TOLERANCE = 1e-4  # acceptance criterion 3
# A gradcheck run checks a fixed number of points, not as many as fit in
# its time: the same seed then checks the same points, so the points that
# fail the tolerance (the known defect in README.md) give the same
# ``failed`` on every run of a seed. The rate fills about ``seconds`` of an
# untraced run on the 2-CPU host this was built on.
GRAD_POINTS_PER_S = 14


@dataclass
class Outcome:
    """What one workload run measured and what its checks found."""

    tail_pct: int
    setups: list[Interval] = field(default_factory=list)
    ops: list[Interval] = field(default_factory=list)
    # Intervals that timed the same work, one group each; the tail is a
    # percentile of the groups' medians.
    tail: list[list[Interval]] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _begin(tracer: Tracer | None, op_id: int) -> None:
    if tracer is not None:
        tracer.begin_op(op_id)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """One hash over every file below ``root``: relative paths and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _all_tasks():
    return arena.iter_tasks(arena.load_task_configs(), "all")


# ------------------------------------------------------------------ suite

def _suite_pass(tasks, seed: int, repeats: int) -> dict:
    return {
        (policy, mode): runner.run_suite(
            tasks, decoding.DecodeMode(mode), repeats, seed, policy
        )
        for policy, mode in SUITE_GRID
    }


def _suite_digests(reports: dict, out_dir: Path) -> dict:
    digests = {}
    for (policy, mode), report in reports.items():
        csv_path, json_path = runner.write_suite_report(report, out_dir / f"{policy}-{mode}.csv")
        digests[f"{policy}/{mode}"] = {"csv": sha256(csv_path), "json": sha256(json_path)}
    return digests


def _episode_problem(report, cfg) -> str | None:
    if report.policy_calls != report.decision_cycles:
        return "policy calls differ from decision cycles"
    if report.success != (report.failure_reason is None):
        return "success and failure reason disagree"
    if report.failure_reason not in (None, "player_defeated", "cycle_cap"):
        return f"unknown failure reason {report.failure_reason!r}"
    # A win or defeat in the last cycle ends the episode at the cap
    # without the cap being its reason.
    if report.decision_cycles > cfg.cycle_cap:
        return "episode ran past the cycle cap"
    if report.failure_reason == "cycle_cap" and report.decision_cycles != cfg.cycle_cap:
        return "cycle cap reported before it was reached"
    return None


def _modes_problem(reports: dict) -> str | None:
    """The sim clock ignores inference, so both decode modes play the same
    episodes; full decoding emits the explanation too, so it is slower."""
    for policy in ("scripted", "random"):
        short, full = reports[(policy, "truncated")], reports[(policy, "full")]
        for a, b in zip(short.rows, full.rows):
            played = (a.task_id, a.success_rate, a.mean_cycles)
            if played != (b.task_id, b.success_rate, b.mean_cycles):
                return f"{policy}: truncated and full play task {a.task_id} differently"
            if not a.mean_latency_ms < b.mean_latency_ms:
                return f"{policy}: truncated latency not below full on task {a.task_id}"
    return None


def suite_seeds(seed: int) -> list[int]:
    return [seed * SUITE_SEEDS + j for j in range(SUITE_SEEDS)]


def suite(seed: int, seconds: float, tmp: Path, clock: Clock, tracer: Tracer | None = None,
          repeats: int = SUITE_REPEATS) -> Outcome:
    """One op is one ``run_episode`` inside ``run_suite``; a pass runs the
    13 tasks x ``repeats`` for each policy and decode mode, with the suite
    seeds in turn."""
    out = Outcome(tail_pct=99)
    cfg = arena.ArenaConfig()
    warm = []
    for i in range(SETUPS):
        clock.calibrate()
        _begin(tracer, -1 - i)
        mark = clock.begin()
        tasks = _all_tasks()
        reports = _suite_pass(tasks, suite_seeds(seed)[0], 1)
        out.setups.append(clock.end(mark))
        _begin(tracer, CHECK_OP)
        clock.calibrate()
        warm.append(_suite_digests(reports, tmp / f"setup{i}"))
    out.check(all(w == warm[0] for w in warm), "suite: warm-up reports differ between set-ups")

    run_episode = runner.run_episode

    def timed_episode(*args, **kwargs):
        clock.tick()
        _begin(tracer, len(out.ops))
        mark = clock.begin()
        report, transcript = run_episode(*args, **kwargs)
        out.ops.append(clock.end(mark))
        _begin(tracer, CHECK_OP)
        problem = _episode_problem(report, cfg)
        if problem:
            out.failed += 1
            out.notes.append(f"failed episode task {report.task_id} seed {report.seed}: {problem}")
        return report, transcript

    seeds = suite_seeds(seed)
    passes: dict[int, list[dict]] = {s: [] for s in seeds}
    runner.run_episode = timed_episode
    try:
        start = perf_counter()
        k = 0
        while k <= SUITE_SEEDS or perf_counter() - start < seconds:
            s = seeds[k % SUITE_SEEDS]
            reports = _suite_pass(tasks, s, repeats)
            passes[s].append(_suite_digests(reports, tmp / f"pass{k}"))
            k += 1
            problem = _modes_problem(reports)
            out.check(problem is None, f"suite: {problem}")
    finally:
        runner.run_episode = run_episode
    clock.calibrate()
    out.tail = [[i] for i in out.ops]
    for s, runs in passes.items():
        out.check(all(d == runs[0] for d in runs),
                  f"suite: passes on seed {s} wrote different reports")
        out.notes.append(f"suite seed {s}: {len(runs)} passes")
        for key, digest in runs[0].items():
            out.notes.append(f"  sha256 {key}: csv {digest['csv']} json {digest['json']}")
    if REFERENCE_SEED in passes and repeats == SUITE_REPEATS:
        out.check(passes[REFERENCE_SEED][0] == REFERENCE["suite"],
                  "suite: reports differ from the stored reference")
    return out


# ----------------------------------------------------------------- corpus

def fixture_predictions(items) -> dict[str, str]:
    """The committed fixture's answering scheme, applied to any items."""
    from combatkit import bench

    answered = {name: 0 for name in FIXTURE_CORRECT}
    predictions = {}
    for item in items:
        category = item.category.value
        right = answered[category] < FIXTURE_CORRECT[category]
        answered[category] += 1
        if right:
            predictions[item.item_id] = item.gold
        elif item.category is bench.Category.REASONING:
            predictions[item.item_id] = _WRONG_CHOICE[item.gold]
        else:
            predictions[item.item_id] = "No" if item.gold == "Yes" else "Yes"
    return predictions


def _cli(argv: list[str]) -> tuple[int, str]:
    from combatkit import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


@dataclass
class _Job:
    out: Path
    sessions: list[Interval] = field(default_factory=list)
    records: list = field(default_factory=list)
    split: tuple = ()
    decoded: list = field(default_factory=list)
    savings: object = None
    items: list = field(default_factory=list)
    report: object = None
    cli: dict = field(default_factory=dict)


def _corpus_job(seed: int, transcripts, session_dirs, out: Path, counts, clock: Clock) -> _Job:
    from combatkit import bench

    job = _Job(out)
    stage3 = []
    for session_dir in session_dirs:
        clock.tick()
        mark = clock.begin()
        session = tracker.import_session(session_dir)
        aligned = aot.align_session(session)
        aot.build_video_aot(aligned)
        frames = aot.build_frames_aot(aligned)
        stage3.extend(aot.to_truncated_form(r) for r in frames.records)
        job.sessions.append(clock.end(mark))
    clock.tick()

    stage3_path = aot.write_records(stage3, out / "stage3.jsonl")
    job.records = aot.read_records(stage3_path)
    job.split = aot.split_dataset(job.records, aot.StageConfig(seed=seed))
    for record in job.records:
        job.decoded.append(tuple(
            decoding.decode(decoding.TokenStream.from_text(record.serialized), mode)
            for mode in (decoding.DecodeMode.TRUNCATED, decoding.DecodeMode.FULL)
        ))
    job.savings = decoding.token_savings_report(job.records)
    clock.tick()

    job.items = bench.generate_synthetic(transcripts, counts, seed=seed)
    items_path = bench.write_items(job.items, out / "items.jsonl")
    items = bench.read_items(items_path)
    predictions_path = bench.write_predictions(
        fixture_predictions(items), out / "predictions.jsonl"
    )
    job.report = bench.score(items, bench.read_predictions(predictions_path))
    clock.tick()

    stage3_arg, items_arg = str(stage3_path), str(items_path)
    verbs = {
        "aot split": ["aot", "split", "--in", stage3_arg, "--train-out",
                      str(out / "cli_train.jsonl"), "--val-out", str(out / "cli_val.jsonl"),
                      "--seed", str(seed)],
        "aot stats": ["aot", "stats", "--in", stage3_arg],
        "decode run truncated": ["decode", "run", "--in", stage3_arg, "--mode", "truncated",
                                 "--out", str(out / "cli_decode_truncated.jsonl")],
        "decode run full": ["decode", "run", "--in", stage3_arg, "--mode", "full",
                            "--out", str(out / "cli_decode_full.jsonl")],
        "decode savings": ["decode", "savings", "--in", stage3_arg,
                           "--out", str(out / "cli_savings.json")],
        "bench validate": ["bench", "validate", "--in", items_arg],
        "bench score": ["bench", "score", "--items", items_arg, "--predictions",
                        str(predictions_path), "--out", str(out / "cli_score.json")],
    }
    for name, argv in verbs.items():
        job.cli[name] = _cli(argv)
        clock.tick()
    return job


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _job_problems(job: _Job, canonical: bool) -> list[str]:
    """Check one job's outputs against the library results it computed."""
    problems = [f"cli {name} exited {code}" for name, (code, _) in job.cli.items() if code]
    if problems:
        return problems
    out = job.out
    for i, (short, full) in enumerate(job.decoded):
        if short.actions.key() != full.actions.key():
            problems.append(f"record {i}: truncated and full decodes recover different actions")
        if full.emitted_tokens[: short.emitted_count] != short.emitted_tokens:
            problems.append(f"record {i}: truncated emission is not a prefix of the full one")
        if (short.stop_reason.value, full.stop_reason.value) != ("trunc", "eos"):
            problems.append(f"record {i}: stop reasons {short.stop_reason} / {full.stop_reason}")
    if not job.savings.mean_truncated_tokens < job.savings.mean_full_tokens:
        problems.append("truncation saves no tokens")

    for mode, index in (("truncated", 0), ("full", 1)):
        rows = _jsonl(out / f"cli_decode_{mode}.jsonl")
        expected = [
            (pair[index].emitted_count, pair[index].stop_reason.value,
             actions.render_action(pair[index].actions))
            for pair in job.decoded
        ]
        if [(r["emitted_tokens"], r["stop_reason"], r["actions"]) for r in rows] != expected:
            problems.append(f"cli decode run {mode} disagrees with the library")
    savings = json.loads((out / "cli_savings.json").read_text(encoding="utf-8"))
    savings.pop("source")
    if savings != job.savings.to_json_dict():
        problems.append("cli decode savings disagrees with the library")
    if json.loads(job.cli["aot stats"][1]) != aot.dataset_stats(job.records):
        problems.append("cli aot stats disagrees with the library")
    aot.write_records(job.split[0], out / "lib_train.jsonl")
    aot.write_records(job.split[1], out / "lib_val.jsonl")
    for side in ("train", "val"):
        if sha256(out / f"cli_{side}.jsonl") != sha256(out / f"lib_{side}.jsonl"):
            problems.append(f"cli aot split {side} side disagrees with the library")
    score_text = json.dumps(job.report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if (out / "cli_score.json").read_text(encoding="utf-8") != score_text:
        problems.append("cli bench score disagrees with the library")
    if canonical:
        shown = shown_score(job.report)
        if shown != EXPECTED_SCORE:
            problems.append(f"score {shown} is not the fixture scheme's {EXPECTED_SCORE}")
    return problems


def shown_score(report) -> dict:
    """Accuracies and macro average as the score JSON rounds them."""
    shown = report.to_json_dict()
    return dict(shown["accuracies"], macro_average=shown["macro_average"])


def score_committed_fixture() -> dict:
    from combatkit import bench

    data = ROOT / "tests" / "data"
    items = bench.read_items(data / "bench_items.jsonl")
    return shown_score(bench.score(items, bench.read_predictions(data / "bench_predictions.jsonl")))


def corpus_seeds(seed: int, corpora: int = CORPORA) -> list[int]:
    return [seed * corpora + j for j in range(corpora)]


def corpus(seed: int, seconds: float, tmp: Path, clock: Clock, tracer: Tracer | None = None,
           episodes_per_task: int = CORPUS_EPISODES_PER_TASK, counts=None,
           corpora: int = CORPORA) -> Outcome:
    """Set-up plays and exports the episodes of ``corpora`` seeds; one op
    is one complete job over one corpus's sessions, and jobs take the
    corpora in turn. ``op_ms_tail`` comes from the per-session builds
    (import to stage 3), the only part with enough samples: each session's
    median over the jobs that built it, so that the tail is that of the
    longest sessions, not of the host's worst moments."""
    out = Outcome(tail_pct=90)
    canonical = episodes_per_task == CORPUS_EPISODES_PER_TASK and counts is None
    sessions = tmp / "sessions"
    exported = []
    for i in range(SETUPS):
        shutil.rmtree(sessions, ignore_errors=True)
        clock.calibrate()
        _begin(tracer, -1 - i)
        mark = clock.begin()
        inputs = []
        for c_seed in corpus_seeds(seed, corpora):
            transcripts = runner.collect_transcripts(
                _all_tasks(), seed=c_seed, episodes_per_task=episodes_per_task
            )
            clock.tick()
            session_dirs = [
                tracker.export_session(
                    runner.transcript_to_session(t), sessions / str(c_seed) / f"{n:03d}"
                )
                for n, t in enumerate(transcripts)
            ]
            clock.tick()
            inputs.append((c_seed, transcripts, session_dirs))
        out.setups.append(clock.end(mark))
        _begin(tracer, CHECK_OP)
        clock.calibrate()
        exported.append(tree_digest(sessions))
    out.check(all(d == exported[0] for d in exported),
              "corpus: set-ups exported different sessions")

    digests: dict[int, list[dict]] = {c_seed: [] for c_seed, _, _ in inputs}
    builds = {(c_seed, n): [] for c_seed, _, dirs in inputs for n in range(len(dirs))}
    start = perf_counter()
    while len(out.ops) <= corpora or perf_counter() - start < seconds:
        k = len(out.ops)
        c_seed, transcripts, session_dirs = inputs[k % corpora]
        job_dir = tmp / f"job{k}"
        clock.calibrate()
        _begin(tracer, k)
        mark = clock.begin()
        job = _corpus_job(c_seed, transcripts, session_dirs, job_dir, counts, clock)
        out.ops.append(clock.end(mark))
        _begin(tracer, CHECK_OP)
        clock.calibrate()
        for n, interval in enumerate(job.sessions):
            builds[(c_seed, n)].append(interval)
        problems = _job_problems(job, canonical)
        if problems:
            out.failed += 1
            out.notes.extend(f"job {k}: {p}" for p in problems[:5])
        digests[c_seed].append({
            "stage3": sha256(job_dir / "stage3.jsonl"),
            "items": sha256(job_dir / "items.jsonl"),
            "score": sha256(job_dir / "cli_score.json"),
        })
        if c_seed == REFERENCE_SEED and canonical and k == 0:
            data = ROOT / "tests" / "data"
            out.check(sha256(job_dir / "items.jsonl") == sha256(data / "bench_items.jsonl"),
                      "corpus: items differ from tests/data/bench_items.jsonl")
            out.check(sha256(job_dir / "predictions.jsonl")
                      == sha256(data / "bench_predictions.jsonl"),
                      "corpus: predictions differ from tests/data/bench_predictions.jsonl")
        shutil.rmtree(job_dir)
    out.tail = list(builds.values())
    for c_seed, runs in digests.items():
        out.check(all(d == runs[0] for d in runs),
                  f"corpus: jobs on seed {c_seed} wrote different files")
        out.notes.append(f"corpus seed {c_seed}: {len(runs)} jobs")
        for key, digest in runs[0].items():
            out.notes.append(f"  sha256 {key}: {digest}")
    if REFERENCE_SEED in digests and canonical:
        out.check(digests[REFERENCE_SEED][0] == REFERENCE["corpus"],
                  "corpus: files differ from the stored reference")
    shown = score_committed_fixture()
    out.check(shown == EXPECTED_SCORE, f"corpus: committed fixture scores {shown}")
    return out


# -------------------------------------------------------------- gradcheck

def point_seed(seed: int, k: int) -> int:
    return runner.episode_seed(seed, 0, k)


def _rows_problem(rows: list[dict], dim: int) -> str | None:
    components = [row["component"] for row in rows]
    if components != ["contrastive_pull", "contrastive_push", "alignment"]:
        return f"components {components}"
    for row in rows:
        if (row["points"], row["dim"]) != (1, dim):
            return f"{row['component']}: points/dim {row['points']}/{row['dim']}"
        values = (row["analytic_grad_norm"], row["fd_grad_norm"], row["max_rel_error"])
        if not all(math.isfinite(v) for v in values):
            return f"{row['component']}: non-finite value"
        if not row["max_rel_error"] < GRAD_TOLERANCE:
            return f"{row['component']}: max_rel_error {row['max_rel_error']:.3e}"
    return None


def gradcheck(seed: int, seconds: float, tmp: Path, clock: Clock, tracer: Tracer | None = None,
              dim: int = GRAD_DIM, min_points: int = 100) -> Outcome:
    """One op checks one random point: ``gradient_check_rows(seed_k, 1, dim)``.

    A run checks points ``k = 0 .. n - 1``, with ``n`` the larger of
    ``min_points`` and ``seconds x GRAD_POINTS_PER_S``.
    """
    from combatkit import loss

    out = Outcome(tail_pct=90)
    warm = []
    for i in range(SETUPS):
        clock.calibrate()
        _begin(tracer, -1 - i)
        mark = clock.begin()
        warm.append(loss.gradient_check_rows(point_seed(seed, 0), points=1, dim=dim))
        out.setups.append(clock.end(mark))
    for k in range(max(min_points, round(seconds * GRAD_POINTS_PER_S))):
        clock.tick()
        _begin(tracer, k)
        mark = clock.begin()
        rows = loss.gradient_check_rows(point_seed(seed, k), points=1, dim=dim)
        out.ops.append(clock.end(mark))
        _begin(tracer, CHECK_OP)
        if k == 0:
            out.check(all(w == rows for w in warm), "gradcheck: repeated point gave other rows")
        problem = _rows_problem(rows, dim)
        if problem:
            out.failed += 1
            out.notes.append(f"failed point seed {point_seed(seed, k)}: {problem}")
    clock.calibrate()
    out.tail = [[i] for i in out.ops]
    out.notes.append(f"points: {len(out.ops)} at dim {dim}")
    return out


WORKLOADS = {"suite": suite, "corpus": corpus, "gradcheck": gradcheck}
