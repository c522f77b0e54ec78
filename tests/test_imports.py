"""Every name a package module imports is used by that module.

The scan reads each module under ``src/combatkit`` with ``ast``: a name
bound by an import statement counts as used when the module loads it,
reaches an attribute through it, or lists it in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "combatkit"

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
