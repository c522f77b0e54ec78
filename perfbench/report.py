"""Run every workload untraced and traced, and print one report.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

For each workload it prints the end-to-end metrics by name and unit, the
per-layer metrics of the traced run, and the tracing overhead (traced
minus untraced). It exits 1 if any run failed a check or any op failed
its output check (hash, tolerance or fixture mismatch), else 0.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "corpus", "gradcheck")
LIMITS = (
    "shared host with other tenants; no CPU pinning; no machine tuning; "
    "timings are scaled by a host-speed kernel (see speed.py)"
)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    print(f"python {platform.python_version()}  numpy {importlib.metadata.version('numpy')}  "
          f"cpus {os.cpu_count()}  cpu {cpu_model()}")
    print(f"limits: {LIMITS}")
    bad = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, result, stderr = run(workload, args.seed, args.seconds, trace)
            results[trace] = result
            status = "ok"
            if code or not result.get("correct") or result.get("failed"):
                bad += 1
                status = f"FAILED (exit {code}, failed ops {result.get('failed')})"
            print(f"\n== {workload} seed {args.seed} trace {trace}: "
                  f"{result.get('attempted')} ops, {status}")
            for line in stderr.strip().splitlines():
                print(f"   {line}")
            for name, m in result.get("metrics", {}).items():
                print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
        untraced = results[0].get("metrics", {})
        traced = results[1].get("metrics", {})
        for name in ("ops_per_s", "op_ms_p50"):
            if name in untraced and f"trace.{name}" in traced:
                a, b = untraced[name]["value"], traced[f"trace.{name}"]["value"]
                print(f"   tracing overhead {name}: {b - a:+.6g} ({(b - a) / a:+.1%} of untraced)")
    print(f"\n{'all runs passed' if not bad else f'{bad} run(s) failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
