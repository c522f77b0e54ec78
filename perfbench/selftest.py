"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* a tiny-scale run of each workload, untraced and traced, passes its
  checks;
* in every traced run each child span lies inside its parent and no
  self time is negative;
* ``loss.contrastive_evals`` reads exactly 1,024 per point at dim 64 in
  two separate runs;
* ``run.py`` exits non-zero, without a result line, in a directory that
  holds only the benchmark.

Exits 1 if any check fails.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from combatkit.bench import Category  # noqa: E402

SEED = 1
TINY = {
    "suite": {"repeats": 1},
    "corpus": {
        "episodes_per_task": 1,
        "corpora": 2,
        "counts": {Category.GATHERING: 30, Category.COMPREHENSION: 20, Category.REASONING: 30},
    },
    "gradcheck": {"dim": 8, "min_points": 3},
}

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def run_workload(name: str, tracer=None, **scale):
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        if tracer is not None:
            tracing.install(tracer)
        try:
            return workloads.WORKLOADS[name](SEED, 0, tmp, speed.Clock(), tracer, **scale)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp)


def check_spans(name: str, tracer: tracing.Tracer) -> None:
    n = len(tracer.start)
    outside = sum(
        1
        for i in range(n)
        if tracer.parent[i] >= 0
        and not (tracer.start[tracer.parent[i]] <= tracer.start[i]
                 and tracer.end[i] <= tracer.end[tracer.parent[i]])
    )
    expect(n > 0 and outside == 0, f"{name}: {n} spans, {outside} outside their parent")
    negative = sum(1 for s in tracer.self_times() if s < 0)
    expect(negative == 0, f"{name}: {negative} spans with negative self time")


def main() -> int:
    for name, scale in TINY.items():
        out = run_workload(name, **scale)
        ok = not out.problems and (out.failed == 0 or name == "gradcheck")
        expect(ok and len(out.ops) > 0,
               f"{name}: tiny run of {len(out.ops)} ops, {out.failed} failed, "
               f"problems {out.problems}")
        tracer = tracing.Tracer()
        out = run_workload(name, tracer, **scale)
        expect(not out.problems, f"{name}: traced tiny run, problems {out.problems}")
        check_spans(name, tracer)
        metrics = tracing.layer_metrics(tracer, len(out.ops), len(out.setups))
        expect(set(metrics) == {m.name for m in tracing.LAYER_METRICS},
               f"{name}: every per-layer metric reported")

    evals = []
    for _ in range(2):
        tracer = tracing.Tracer()
        out = run_workload("gradcheck", tracer, min_points=3)
        evals.append(tracing.layer_metrics(tracer, len(out.ops), len(out.setups))
                     ["loss.contrastive_evals"])
    expect(evals == [1024.0, 1024.0], f"loss.contrastive_evals per point at dim 64: {evals}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "suite", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"benchmark alone: exit {proc.returncode}, stdout {proc.stdout.strip()[:60]!r}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
