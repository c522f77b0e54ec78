"""What the package modules import.

Every name a package module imports is used by that module. The scan
reads each module under ``src/combatkit`` with ``ast``: a name bound by
an import statement counts as used when the module loads it, reaches an
attribute through it, or lists it in ``__all__``.

Only ``combatkit.loss`` and the ``loss check`` verb need numpy. With
numpy blocked, every other module, ``combatkit.cli`` included, imports
and rebuilds the committed fixtures byte for byte, and ``loss check``
ends in a typed ``MissingDependency`` error. The determinism manifest
(``test_determinism.py``) runs every other verb with numpy blocked
against its pins. Importing ``combatkit.cli`` does not load numpy. A
fresh ``aot stats`` loads none of ``arena``, ``bench``, ``runner``,
``policies`` and ``loss``. No package module imports ``dataclasses``:
every record is a named tuple or a slotted class, and no module imports
``importlib.resources``, which loads ``inspect`` on Python 3.12 and
later. So a fresh ``aot stats``, ``agent run``, ``bench validate``,
``decode savings`` and ``report`` each load none of ``dataclasses``,
``inspect`` and ``ast``. A fresh ``report`` given ``--savings`` loads
none of ``runner``, ``arena`` and ``policies``. Only
``combatkit.decoding`` imports ``time``; the manifest's skewed-clock
pass checks that no verb writes what it reads.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from combatkit.aot import bundled_stage3_path, dataset_stats, read_records
from combatkit.rows import json_text

from test_fixtures import assert_equal_committed

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "combatkit"


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
    return [
        f"{path.name}:{line} imports {name!r} and never uses it"
        for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_package_modules_use_every_import():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 10
    problems = [problem for path in modules for problem in unused_imports(path)]
    assert problems == []


def test_only_the_decoder_reads_the_clock():
    # decode's measured wall_ms is the package's one clock; the episode
    # loop and every report stay independent of host speed
    importers = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if "time" in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["decoding.py"]


def test_no_package_module_imports_dataclasses():
    # dataclasses loads inspect and ast; every record is a named tuple or a
    # slotted class, so no verb pays for them
    importers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                importers.append(path.name)
    assert importers == []


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


# Run as `python -c NUMPY_FREE_RUN REPO_ROOT OUT_DIR`: blocks numpy,
# imports the core modules and combatkit.cli, writes the rebuilt fixtures to
# OUT_DIR/fixtures, then runs `loss check` through cli.main and writes its
# exit code, stdout and stderr to OUT_DIR/loss_check.json. The determinism
# manifest (test_determinism.py) runs every other verb with numpy blocked.
NUMPY_FREE_RUN = """
import contextlib, importlib, importlib.util, io, json, sys
from pathlib import Path

sys.modules["numpy"] = None  # from here on, `import numpy` raises ImportError
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))
for name in ("actions", "aot", "arena", "bench", "cli", "decoding", "errors", "policies",
             "rows", "runner", "tracker"):
    importlib.import_module(f"combatkit.{name}")
try:
    import combatkit.loss
except ImportError:
    pass
else:
    sys.exit("combatkit.loss imported with numpy blocked")

from combatkit.cli import main

spec = importlib.util.spec_from_file_location("build_fixtures", root / "scripts" / "build_fixtures.py")
fixtures = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fixtures)
fixtures.build_stage3(out / "fixtures" / "stage3_sample.jsonl")
fixtures.build_bench(out / "fixtures" / "bench_items.jsonl",
                     out / "fixtures" / "bench_predictions.jsonl")
fixtures.build_golden_session(out / "fixtures" / "golden_session")

stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    code = main(["loss", "check", "--points", "1", "--dim", "4"])
(out / "loss_check.json").write_text(json.dumps([code, stdout.getvalue(), stderr.getvalue()]),
                                     encoding="utf-8")
"""


def test_core_runs_without_numpy(tmp_path):
    blocked = tmp_path / "blocked"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUN, str(ROOT), str(blocked)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert_equal_committed(blocked / "fixtures")
    code, out, err = json.loads((blocked / "loss_check.json").read_text(encoding="utf-8"))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "MissingDependency" and "numpy" in payload["message"]


def test_importing_the_cli_leaves_numpy_unloaded():
    code = "import json, sys; import combatkit.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "combatkit.cli" in loaded
    assert [m for m in loaded if m == "combatkit.loss" or m.split(".")[0] == "numpy"] == []


def _fresh_main(argv: list[str], cwd: Path | None = None) -> tuple[int, str, list[str]]:
    """``cli.main(argv)`` in a fresh interpreter: exit code, stdout and loaded modules."""
    code = (
        "import contextlib, io, json, sys\n"
        "from combatkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, out, loaded = json.loads(proc.stdout)
    return exit_code, out, loaded


def test_aot_stats_loads_only_its_own_modules():
    # the verb table and the aot verbs need none of the episode, benchmark
    # or loss layers, and their records none of the code dataclasses
    # generates, so a fresh `aot stats` must not pay for loading them
    bundled = bundled_stage3_path()
    exit_code, out, loaded = _fresh_main(["aot", "stats", "--in", str(bundled)])
    assert exit_code == 0
    assert out == json_text(dataset_stats(read_records(bundled)))
    deferred = {f"combatkit.{name}" for name in ("arena", "bench", "runner", "policies", "loss")}
    assert "combatkit.aot" in loaded
    assert deferred.intersection(loaded) == set()
    assert {"dataclasses", "inspect", "ast"}.intersection(loaded) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["agent", "run", "--task", "1", "--seed", "0"],
        ["bench", "validate", "--in", str(ROOT / "tests" / "data" / "bench_items.jsonl")],
        ["decode", "savings"],
        ["report", "--suite", "suite.json"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_verbs_start_without_generated_code(tmp_path, argv):
    # every verb but `loss check` runs on named tuples and slotted classes
    suite = {"policy": "scripted", "seed": 0, "rows": []}
    (tmp_path / "suite.json").write_text(json.dumps(suite), encoding="utf-8")
    exit_code, out, loaded = _fresh_main(argv, cwd=tmp_path)
    assert exit_code == 0 and out
    assert {"dataclasses", "inspect", "ast"}.intersection(loaded) == set()


def test_report_with_savings_loads_no_episode_layer(tmp_path):
    # the reference latencies live in decoding, so a report that reads its
    # token savings from a file decodes nothing and runs no episode
    suite = {"policy": "scripted", "seed": 0,
             "rows": [{"task_id": 1, "success_rate": 0.5, "mean_latency_ms": 12.25}]}
    savings = {"records": 3, "mean_full_tokens": 10.0, "mean_truncated_tokens": 4.0, "ratio": 0.4}
    (tmp_path / "suite.json").write_text(json.dumps(suite), encoding="utf-8")
    (tmp_path / "savings.json").write_text(json.dumps(savings), encoding="utf-8")
    argv = ["report", "--suite", "suite.json", "--savings", "savings.json", "--out", "overview"]
    exit_code, out, loaded = _fresh_main(argv, cwd=tmp_path)
    assert exit_code == 0
    assert out == (tmp_path / "overview.csv").read_text(encoding="utf-8")
    episode_layer = {f"combatkit.{name}" for name in ("runner", "arena", "policies")}
    assert "combatkit.decoding" in loaded
    assert episode_layer.intersection(loaded) == set()
