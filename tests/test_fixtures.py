"""The committed dataset and fixtures equal what scripts/build_fixtures.py writes now."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.fixture
def build_fixtures(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ first on import
    spec = importlib.util.spec_from_file_location(
        "build_fixtures", ROOT / "scripts" / "build_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_equal_committed(out: Path) -> None:
    """The fixtures rebuilt under ``out`` equal the committed files byte for byte."""
    committed = {
        "stage3_sample.jsonl": ROOT / "src" / "combatkit" / "data" / "stage3_sample.jsonl",
        "bench_items.jsonl": DATA / "bench_items.jsonl",
        "bench_predictions.jsonl": DATA / "bench_predictions.jsonl",
        **{f"golden_session/{p.name}": p for p in (DATA / "golden_session").iterdir()},
    }
    rebuilt = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert rebuilt == sorted(committed)
    for name, path in committed.items():
        assert (out / name).read_bytes() == path.read_bytes(), f"{name} differs from {path}"


def test_rebuilt_fixtures_equal_committed_files(build_fixtures, tmp_path):
    build_fixtures.build_stage3(tmp_path / "stage3_sample.jsonl")
    build_fixtures.build_bench(tmp_path / "bench_items.jsonl", tmp_path / "bench_predictions.jsonl")
    build_fixtures.build_golden_session(tmp_path / "golden_session")
    assert_equal_committed(tmp_path)
