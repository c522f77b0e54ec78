"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it needs ``src/combatkit`` there and
imports the package from ``src`` without installing it. Outputs go to a
temporary directory inside the checkout that is removed at the end.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. An untraced run (``--trace
0``) reports the end-to-end metrics; a traced run (``--trace 1``) wraps
the package's layer boundaries from outside and reports the per-layer
metrics. Timings are scaled by host speed (see ``speed.py``).
``failed`` counts ops whose output failed its check. The run
exits 1 with ``correct`` false when a run-level check fails: repeated
work wrote different files, outputs at the reference seed differ from
``reference.json`` or from the committed fixtures, or the package's
data files changed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
UNTOUCHED = (SRC / "combatkit" / "data", ROOT / "tests" / "data")
# Fresh-process samples are spread over the run, one per START_EVERY_S,
# and topped up to COMMAND_STARTS at the end.
COMMAND_STARTS = 9
START_EVERY_S = 1.5
NUMPY_START_MS = 150.0

# Names the end-to-end metrics have on each workload.
ALIASES = {
    "suite": {"ops_per_s": "episodes_per_s", "op_ms_p50": "episode_ms_p50",
              "op_ms_tail": "episode_ms_p99"},
    "corpus": {"ops_per_s": "jobs_per_s", "op_ms_p50": "corpus_job_ms",
               "op_ms_tail": "session_build_ms_p90"},
    "gradcheck": {"ops_per_s": "points_per_s", "op_ms_p50": "point_ms_p50",
                  "op_ms_tail": "point_ms_p90"},
}
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "command_start_ms": "ms",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "corpus", "gradcheck"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def tail_ms(out, ms) -> float:
    """The workload's tail percentile over the medians of its tail groups."""
    return percentile([statistics.median(ms(i) for i in group) for group in out.tail],
                      out.tail_pct)


class CommandStarts:
    """Times fresh interpreters running ``aot stats`` on the bundled dataset.

    The work runs in another process, which a parent-side kernel did not
    track (a fresh process slowed about 1.35x while a pure-Python kernel
    in the parent slowed 2x), so each start is scaled instead by a fresh
    ``import numpy`` timed right after it:
    ``ms = wall ms x NUMPY_START_MS / numpy start ms``, the time on a host
    where that takes ``NUMPY_START_MS``. Their ratio moved by under 2%
    while both moved by about 9%.
    """

    def __init__(self, aot):
        self.bundled = aot.bundled_stage3_path()
        self.expected = aot.dataset_stats(aot.read_records(self.bundled))
        self.ms: list[float] = []
        self.wall_ms: list[float] = []
        self.problems: list[str] = []

    def _fresh(self, *argv: str) -> tuple[float, subprocess.CompletedProcess]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        return (perf_counter() - t0) * 1000.0, proc

    def sample(self) -> None:
        code = "import sys; from combatkit.cli import main; sys.exit(main(sys.argv[1:]))"
        wall_ms, proc = self._fresh("-c", code, "aot", "stats", "--in", str(self.bundled))
        try:
            stats = json.loads(proc.stdout)
        except json.JSONDecodeError:
            stats = None
        if proc.returncode != 0 or stats != self.expected:
            self.problems.append(f"aot stats in a fresh process: exit {proc.returncode}, "
                                 f"output {'not JSON' if stats is None else 'differs'}")
            return
        numpy_ms, proc = self._fresh("-c", "import numpy")
        if proc.returncode != 0:
            self.problems.append(f"import numpy in a fresh process: exit {proc.returncode}")
            return
        self.wall_ms.append(wall_ms)
        self.ms.append(wall_ms * NUMPY_START_MS / numpy_ms)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "combatkit").is_dir():
        print(f"no package at {SRC / 'combatkit'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads
    from combatkit import aot

    before = [workloads.tree_digest(d) for d in UNTOUCHED]
    tracer = tracing.Tracer() if args.trace else None
    clock = speed.Clock()
    starts = None
    if tracer is None:
        starts = CommandStarts(aot)
        clock.every(START_EVERY_S, starts.sample)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        if tracer is not None:
            tracing.install(tracer)
        try:
            out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tmp, clock, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = list(out.problems)
    op_ms = [clock.scaled_ms(i) for i in out.ops]
    ops_per_s = 1000.0 * len(op_ms) / sum(op_ms)
    op_ms_p50 = statistics.median(op_ms)
    wall = {
        "setup_s": statistics.median(i.wall_ms for i in out.setups) / 1000.0,
        "ops_per_s": 1000.0 * len(out.ops) / sum(i.wall_ms for i in out.ops),
        "op_ms_p50": statistics.median(i.wall_ms for i in out.ops),
        "op_ms_tail": tail_ms(out, lambda i: i.wall_ms),
    }
    if starts is not None:
        while len(starts.ms) + len(starts.problems) < COMMAND_STARTS:
            starts.sample()
        problems += starts.problems
        metrics = {
            "setup_s": statistics.median(clock.scaled_ms(i) for i in out.setups) / 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": ops_per_s,
            "op_ms_p50": op_ms_p50,
            "op_ms_tail": tail_ms(out, clock.scaled_ms),
        }
        if starts.ms:
            metrics["command_start_ms"] = statistics.median(starts.ms)
            wall["command_start_ms"] = statistics.median(starts.wall_ms)
        else:
            problems.append("no fresh-process command start passed its check")
        units = dict(UNITS)
    else:
        metrics = tracing.layer_metrics(tracer, len(out.ops), len(out.setups))
        metrics["trace.ops_per_s"] = ops_per_s
        metrics["trace.op_ms_p50"] = op_ms_p50
        units = {m.name: m.unit for m in tracing.LAYER_METRICS}
        units.update({"trace.ops_per_s": "1/s", "trace.op_ms_p50": "ms"})
    after = [workloads.tree_digest(d) for d in UNTOUCHED]
    for path, a, b in zip(UNTOUCHED, before, after):
        if a != b:
            problems.append(f"{path.relative_to(ROOT)} changed during the run")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"python {sys.version.split()[0]} numpy {importlib.metadata.version('numpy')} "
          f"cpus {os.cpu_count()}")
    print(f"ops {len(out.ops)} failed {out.failed}; host kernel ms "
          f"min {min(clock.kernel_ms):.3f} median {statistics.median(clock.kernel_ms):.3f} "
          f"max {max(clock.kernel_ms):.3f} over {len(clock.kernel_ms)} samples")
    for note in out.notes:
        print(note)
    aliases = ALIASES[args.workload]
    for name, value in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        raw = f"; wall {wall[name]:.6g}" if tracer is None and name in wall else ""
        print(f"{name}{alias} {value:.6g} {units[name]}{raw}")
    if tracer is not None:
        print("spans: phase name calls total_ms self_ms")
        for phase, rows in tracing.span_table(tracer).items():
            for name, (calls, total, own) in sorted(rows.items()):
                print(f"  {phase} {name} {calls} {total * 1000:.3f} {own * 1000:.3f}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(out.ops),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
