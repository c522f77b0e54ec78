"""What the package modules import.

Every name a package module imports is used by that module. The scan
reads each module under ``src/combatkit`` with ``ast``: a name bound by
an import statement counts as used when the module loads it, reaches an
attribute through it, or lists it in ``__all__``.

Only ``combatkit.loss`` and ``combatkit.cli`` need numpy: with numpy
blocked, the other modules import and write the pinned suite reports and
the committed fixtures byte for byte.
"""

from __future__ import annotations

import ast
import hashlib
import subprocess
import sys
from pathlib import Path

from test_fixtures import assert_equal_committed
from test_runner import SUITE_DIGESTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "combatkit"

# (module, name) pairs imported on purpose without being used.
ALLOWED_UNUSED = {
    # perfbench/tracing.py wraps runner.step for its arena.step metrics,
    # so the name must stay bound in the runner module
    ("runner", "step"),
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    module = path.stem
    return [
        f"{path.name}:{line} imports {name!r} and never uses it"
        for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used and (module, name) not in ALLOWED_UNUSED
    ]


def test_package_modules_use_every_import():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 10
    problems = [problem for path in modules for problem in unused_imports(path)]
    assert problems == []


def test_allowed_unused_imports_are_still_imported():
    # an allowance outlives its import only by mistake
    for module, name in ALLOWED_UNUSED:
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
        assert name in _imported_names(tree)


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "from typing import Any\n"
        "__all__ = ['Any']\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = os.path.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == ["sample.py:1 imports 'field' and never uses it"]


# Run as `python -c NUMPY_FREE_RUN REPO_ROOT OUT_DIR`: blocks numpy, imports
# the core modules, then writes the seed-0 suite reports to OUT_DIR/suite
# and the rebuilt fixtures to OUT_DIR/fixtures.
NUMPY_FREE_RUN = """
import importlib, importlib.util, sys
from pathlib import Path

sys.modules["numpy"] = None  # from here on, `import numpy` raises ImportError
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))
for name in ("actions", "aot", "arena", "bench", "decoding", "errors", "policies", "rows",
             "runner", "tracker"):
    importlib.import_module(f"combatkit.{name}")
try:
    import combatkit.loss
except ImportError:
    pass
else:
    sys.exit("combatkit.loss imported with numpy blocked")

from combatkit.arena import iter_tasks, load_task_configs
from combatkit.decoding import DecodeMode
from combatkit.runner import run_suite, write_suite_report

tasks = load_task_configs()
for policy in ("scripted", "random"):
    for mode in ("truncated", "full"):
        report = run_suite(iter_tasks(tasks, "all"), DecodeMode(mode), 2, 0, policy)
        write_suite_report(report, out / "suite" / f"{policy}-{mode}.csv")

spec = importlib.util.spec_from_file_location("build_fixtures", root / "scripts" / "build_fixtures.py")
fixtures = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fixtures)
fixtures.build_stage3(out / "fixtures" / "stage3_sample.jsonl")
fixtures.build_bench(out / "fixtures" / "bench_items.jsonl",
                     out / "fixtures" / "bench_predictions.jsonl")
fixtures.build_golden_session(out / "fixtures" / "golden_session")
"""


def test_core_runs_without_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUN, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for (policy, mode), pinned in SUITE_DIGESTS.items():
        digests = tuple(
            hashlib.sha256((tmp_path / "suite" / f"{policy}-{mode}.{ext}").read_bytes()).hexdigest()
            for ext in ("csv", "json")
        )
        assert digests == pinned, (policy, mode)
    assert_equal_committed(tmp_path / "fixtures")
