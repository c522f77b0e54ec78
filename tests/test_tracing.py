"""The benchmark tracer's patch table against the package.

``perfbench/tracing.py`` wraps library functions by name where their
callers look them up. ``install`` fails when a patched name is gone from
the package, and ``uninstall`` must put every original back, so a traced
run leaves the package as it found it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from combatkit import cli, runner
from combatkit.aot import bundled_stage3_path
from combatkit.arena import load_task_configs

pytest.importorskip("numpy")  # install() patches combatkit.loss

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_uninstall_restores_every_patched_name(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        originals = {}
        for owner, attr, original in tracer._undo:
            originals.setdefault((owner, attr), original)
        assert len(originals) > 1
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_a_traced_episode_records_one_arena_step_per_cycle_and_the_warm_up(tracing):
    task = load_task_configs()[1]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        report, _ = runner.run_episode(task, runner.make_policy("scripted", task, 0))
    finally:
        tracer.uninstall()
    assert report.decision_cycles > 1
    steps = list(tracer.name).count(tracer.names.index("arena.step"))
    assert steps == report.decision_cycles + 1


def test_the_cli_serves_each_patched_name_as_its_home_modules_object(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        served = [(attr, original) for owner, attr, original in tracer._undo if owner is cli]
    finally:
        tracer.uninstall()
    assert len(served) == 19
    for attr, original in served:
        assert getattr(sys.modules[original.__module__], attr) is original, attr
        if attr != "main":  # the rest come from the cli's lazy table
            assert cli.__getattr__(attr) is original, attr


def test_cli_verbs_call_the_names_the_tracer_wraps(tracing, tmp_path, capsys):
    # a handler that bypassed a wrapped name would record no span for it
    items = Path(__file__).resolve().parent / "data" / "bench_items.jsonl"
    stage3 = str(bundled_stage3_path())
    runs = [
        (["aot", "stats", "--in", stage3], {"aot.read"}),
        (["decode", "run", "--in", stage3, "--out", str(tmp_path / "decoded.jsonl")],
         {"aot.read", "decoding.decode", "actions.render"}),
        (["bench", "validate", "--in", str(items)], {"bench.validate"}),
    ]
    for argv, spans in runs:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            assert cli.main(argv) == 0, argv
        finally:
            tracer.uninstall()
        assert {"cli.main", *spans} <= {tracer.names[i] for i in tracer.name}, argv
    capsys.readouterr()
