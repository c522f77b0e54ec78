"""The determinism manifest: every file a ``combatkit`` verb writes, pinned by sha256.

The contract is that the same inputs and seed give byte-identical files,
and that wall time never reaches one. Each entry of ``MANIFEST`` names a
verb run, its argv and the sha256 of each file the run writes. The argv
holds relative paths only: it runs through ``cli.main`` in a scratch
working directory that holds the ``INPUTS`` and nothing else, so neither
a path of this checkout nor of the scratch directory can reach a file.
Three checks read the table:

(a) every entry writes exactly its pinned files, each equal to its pin;
(b) a second pass under a skewed ``time.perf_counter``, ``time.time`` and
    ``time.monotonic`` (and their ``_ns`` twins) writes the same bytes, and
    so does ``decode run`` paced with ``--pace``, the one verb that sleeps;
(c) two fresh interpreters write the same bytes: one at
    ``PYTHONHASHSEED=0`` with numpy blocked, where the ``loss-check`` entry
    is skipped, and one at ``PYTHONHASHSEED=1``.

Passes (b) and (c) also compare each entry's stdout with the first
pass's, with ``decode run``'s ``mean_wall_ms`` masked: that measured
time is the one wall-clock number a verb prints, and it never reaches a
file. The ``aot build`` entries also pin their stdout summary.

A pin that does not match fails with the entry, the file and the digest
it wrote, as a line to paste into the table. A deliberate re-pin is that
hand edit, listed in CHANGES.md; no script rewrites pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from combatkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# Copied or written into each pass's working directory before the first entry runs.
INPUTS = {
    "golden_session": DATA / "golden_session",
    "stage3_sample.jsonl": ROOT / "src" / "combatkit" / "data" / "stage3_sample.jsonl",
    "bench_items.jsonl": DATA / "bench_items.jsonl",
    "bench_predictions.jsonl": DATA / "bench_predictions.jsonl",
    "report-suite.json": {"policy": "scripted", "seed": 0, "rows": [
        {"task_id": 1, "success_rate": 0.5, "mean_latency_ms": 12.25}]},
    "report-savings.json": {"records": 3, "mean_full_tokens": 10.0,
                            "mean_truncated_tokens": 4.0, "ratio": 0.4},
}


class Entry(NamedTuple):
    """One verb run: its argv, the sha256 of each file it writes, keyed by
    the file's path in the working directory, and, where one is pinned,
    the JSON summary it prints."""

    name: str
    argv: str
    outputs: dict[str, str]
    stdout: dict | None = None

    @property
    def needs_numpy(self) -> bool:
        # `loss check` is the one verb that needs numpy
        return self.argv.startswith("loss ")


def _aot_build(stage: int, short: bool, records: int, skipped: int, digest: str) -> Entry:
    # short windows (n=2, k_frames=1) build records from the golden
    # session; the default ones build none
    out = f"stage{stage}{'-short' if short else ''}.jsonl"
    flags = " --n 2 --k-frames 1" if short else ""
    return Entry(
        f"aot-build-{stage}{'-short' if short else ''}",
        f"aot build --dir golden_session --stage {stage}{flags} --out {out}",
        {out: digest},
        {"out": out, "records": records, "skipped": skipped},
    )


def _agent_suite(policy: str, mode: str, csv: str, json_: str) -> Entry:
    out = f"suite-{policy}-{mode}"
    return Entry(
        f"agent-suite-{policy}-{mode}",
        f"agent suite --repeats 2 --seed 0 --policy {policy} --mode {mode} --out {out}",
        {f"{out}.csv": csv, f"{out}.json": json_},
    )


MANIFEST = (
    # taken before --tap-threshold-ms, which nothing read, was removed
    Entry("track-align", "track align --dir golden_session --out aligned.jsonl", {
        "aligned.jsonl": "942470f1c50d4e04e3cbcf3f8fbb7cfba629374970fb6889a9ece0607fd813f0"}),
    Entry("track-export", "track export --dir golden_session --out exported", {
        "exported/events.jsonl": "e6f2e9a1b1ed5317a2fbfca748b2d20187388971360181e050ac95e2f0268fc5",
        "exported/frames.jsonl": "816a371eb4192e0c9bb7efcacd2f6ff0131c8badb8e984c13a8e0d31cad3429d",
        "exported/intervals.jsonl": "30abdde801e4b49aaffb29e701d16fc187494596769576d7f55444c3312cceef",
        "exported/meta.json": "4597d51c2f576c7d36949450c21583178562dc670e6c1a0e98039731444f7965"}),
    # taken before --tap-threshold-ms was removed; the first three are the empty file
    _aot_build(1, False, 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    _aot_build(2, False, 0, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    _aot_build(3, False, 0, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    _aot_build(1, True, 4, 0, "664bf4a498d06af741216acb4f8f3032656f239b7ef34726cae358e3d2262603"),
    _aot_build(2, True, 2, 0, "ebcd67e0fe1a60c6428bd43423ab4c86ad95e8521cf868be83cc990300e116b7"),
    _aot_build(3, True, 2, 0, "9da97b48210e3ac53875c30b2f2bf2920ef5ebcf1f0855f0775dc52cf36fe31c"),
    Entry("aot-split", "aot split --in stage3_sample.jsonl --split 0.9 --seed 3 "
          "--train-out train.jsonl --val-out val.jsonl", {
              "train.jsonl": "14a03a2fdb3b659bdf704e0dedd5e45acb226476650eeedef88d36e264a00cec",
              "val.jsonl": "c76ccb8dde7f407845284454312c49686f34b449f95dfbe5252ce8bf22add2ef"}),
    # taken when the alignment row still held its own copy of the gradient and -log p
    Entry("loss-check", "loss check --seed 0 --points 100 --dim 64 --out grad", {
        "grad.csv": "70692bac8f8b1c17da7cc0211d43ea7aa0b68ac0675a1ba1fb531d076f1dbece",
        "grad.json": "08aa904fe719962acae768dd6516f6ae232c5124ae3f4e0effdf43a88aa0998f"}),
    Entry("decode-run", "decode run --in stage3_sample.jsonl --out decoded.jsonl", {
        "decoded.jsonl": "f4663a2f9502c5ab1b438042e0c0bbd6b910cc9c0a0b9becb3fbbfce0ea202aa"}),
    Entry("decode-savings", "decode savings --in stage3_sample.jsonl --out savings", {
        "savings.csv": "4169fa387def4cda0f66cad858ca80f1bf561dbfaec0110869539755a71e6f9d",
        "savings.json": "f2578cc80e3033560281e4451371faf001b1c7b69ccab67245577379f0dc6519"}),
    Entry("agent-run", "agent run --task 1 --seed 0 --out run", {
        "run/report.json": "e17a3e362610ea5dfb731234a6abdd53fa38b6d8637c242ae53afe2a4786d149",
        "run/session/events.jsonl": "cb2205c008793e107aedb455038d8f7b4b6fa125caeae197c602d38cd92e33ac",
        "run/session/frames.jsonl": "f8de6204f27184b553288c483347226f1470d6b98e23519c760fe4da13a62ca4",
        "run/session/intervals.jsonl": "635af62cd2bb9b3d018e567806a0affc339599a4bcb4cee9ee7343d8d68cb0fc",
        "run/session/meta.json": "9914ba4c0c7ebac31ca4d640c5528f089d2898b6e8b4c011073a5190fa763531"}),
    # taken from the per-tick loop that ran each tick through ``step``
    _agent_suite("scripted", "truncated",
                 "e55c293bf973f416347613b85ca565475cd6e40e46485dd830aeebdd46866b3b",
                 "3fe65f389c5f54da1b165f70c1335e6be941fa08e2e6d3c6c8655cc453210ba5"),
    _agent_suite("scripted", "full",
                 "28ee849f07815de766da72d8bd82629e848491a133c11c9be8afd01a1b2d26a2",
                 "41180df4d3403561161c04ed485be763b131289947a5015915065dee0b5b8e06"),
    _agent_suite("random", "truncated",
                 "11ccd5a4dd5b1349c993246944e410fd20a4cc40906c0a6271ffd020a5335670",
                 "7818d5991a9c3de1ab45c4d854c7fdc0824ae85bf31e296695b1e66c43053ee3"),
    _agent_suite("random", "full",
                 "bb81fee93d82e35b06c890377b56e8d44061017c71facaa61e96549468d3900f",
                 "383f210af049356343cc52f9a66b0ba9be735fa0ab668407bd60946637f20bdd"),
    Entry("bench-gen", "bench gen --out items.jsonl --seed 0 --tasks 1 --episodes-per-task 1 "
          "--gathering 6 --comprehension 4 --reasoning 4", {
              "items.jsonl": "0a2364a731b3baf8b516b503f0a9688bf04e1fffdd649c84793424c2493dbe8e"}),
    Entry("bench-score", "bench score --items bench_items.jsonl "
          "--predictions bench_predictions.jsonl --out score", {
              "score.csv": "c50d104df30033a816a905f23afc2e6177ab71cbe93ac7ebf86eb817e11acb51",
              "score.json": "f2c2cf494444803c0112ada0b9843beaf25d5d0011395556e234b40c8b136d09"}),
    Entry("report", "report --suite report-suite.json --savings report-savings.json "
          "--out overview", {
              "overview.csv": "341a75cf62ce63f9c0d04bf8f9ce05c30cce66d9c0b7ea4e5a33cc914c9e8a64",
              "overview.json": "a57aef0ead338ba6bec7249764d376c5dc11b227d9f662aa07dc61a6c17270b7"}),
)
BY_NAME = {entry.name: entry for entry in MANIFEST}
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def _files(workdir: Path) -> set[str]:
    return {p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file()}


def run_pass(workdir: Path, entries=MANIFEST) -> dict[str, list]:
    """Run each entry through ``cli.main`` in ``workdir``, which this creates.

    Entry name -> exit code, stdout, and the sha256 of each file the run
    left that was not there before it. Without numpy, the entries that
    need it do not run.
    """
    workdir.mkdir(parents=True)
    for name, source in INPUTS.items():
        if isinstance(source, dict):
            (workdir / name).write_text(json.dumps(source), encoding="utf-8")
        elif source.is_dir():
            shutil.copytree(source, workdir / name)
        else:
            shutil.copyfile(source, workdir / name)
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for entry in entries:
            if entry.needs_numpy and not HAVE_NUMPY:
                continue
            before = _files(workdir)
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(entry.argv.split())
            written = {
                name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                for name in sorted(_files(workdir) - before)
            }
            results[entry.name] = [code, out.getvalue(), written]
    finally:
        os.chdir(cwd)
    return results


def pin_mismatches(entry: Entry, result: list) -> list[str]:
    """Each way a run misses its entry, written so that a re-pin is a paste."""
    code, _, written = result
    problems = [] if code == 0 else [f"{entry.name}: exit code {code}"]
    for name in sorted(entry.outputs.keys() | written.keys()):
        if name not in written:
            problems.append(f"{entry.name}: wrote no {name}")
        elif written[name] != entry.outputs.get(name):
            problems.append(f'{entry.name}: "{name}": "{written[name]}",')
    return problems


def without_wall_time(stdout: str) -> str:
    # decode run prints the measured wall time per record
    return re.sub(r'"mean_wall_ms": [-+.0-9e]+', '"mean_wall_ms": null', stdout)


def assert_same_bytes(results: dict[str, list], first: dict[str, list]) -> None:
    """``results`` match every pin, and their stdout that of the first pass."""
    problems = [
        problem for name, result in results.items()
        for problem in pin_mismatches(BY_NAME[name], result)
    ]
    problems += [
        f"{name}: stdout differs from the first pass"
        for name, (_, out, _) in results.items()
        if without_wall_time(out) != without_wall_time(first[name][1])
    ]
    assert not problems, "\n".join(problems)


def names_run(numpy: bool) -> list[str]:
    return [entry.name for entry in MANIFEST if numpy or not entry.needs_numpy]


@pytest.fixture(scope="module")
def first_pass(tmp_path_factory) -> dict[str, list]:
    results = run_pass(tmp_path_factory.mktemp("first") / "work")
    assert list(results) == names_run(HAVE_NUMPY)
    return results


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda entry: entry.name)
def test_outputs_match_their_pins(first_pass, entry):
    if entry.needs_numpy and not HAVE_NUMPY:
        pytest.skip(f"{entry.name} needs numpy")
    result = first_pass[entry.name]
    problems = pin_mismatches(entry, result)
    assert not problems, "\n".join(problems)
    if entry.stdout is not None:
        assert json.loads(result[1]) == entry.stdout


def _skewed(clock, offset):
    # far ahead and 1,000 times as fast, so a reading that reaches a file moves it
    return lambda: clock() * 1000 + offset


def test_a_skewed_clock_writes_the_same_bytes(first_pass, tmp_path, monkeypatch):
    for name in ("perf_counter", "time", "monotonic"):
        monkeypatch.setattr(time, name, _skewed(getattr(time, name), 1.5e9))
        monkeypatch.setattr(time, f"{name}_ns", _skewed(getattr(time, f"{name}_ns"), 15**18))
    results = run_pass(tmp_path / "skewed")
    # `decode run` paced, so that it sleeps, about 5 ms in all; `TokenStream`
    # bound the real `time.sleep` when it was defined
    decode = BY_NAME["decode-run"]
    paced = run_pass(tmp_path / "paced", [decode._replace(argv=decode.argv + " --pace 100000")])
    monkeypatch.undo()
    assert list(results) == list(first_pass)
    assert_same_bytes(results, first_pass)
    assert_same_bytes(paced, first_pass)


# Run as `python -c FRESH_PASS BLOCK WORKDIR` with tests/ and src/ first on
# the path, then the inherited PYTHONPATH entries (so a `sitecustomize` there
# reaches the child too): with BLOCK "1" it blocks numpy, as
# test_imports.NUMPY_FREE_RUN does, then runs the manifest and prints
# run_pass's results as JSON.
FRESH_PASS = """
import json, sys
from pathlib import Path
if sys.argv[1] == "1":
    sys.modules["numpy"] = None  # from here on, `import numpy` raises ImportError
from test_determinism import run_pass
print(json.dumps(run_pass(Path(sys.argv[2]))))
"""


@pytest.mark.parametrize(
    "hash_seed, block_numpy", [("0", True), ("1", False)], ids=["0-numpy-blocked", "1"]
)
def test_fresh_interpreters_write_the_same_bytes(first_pass, tmp_path, hash_seed, block_numpy):
    inherited = [entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PASS, "1" if block_numpy else "0", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                 PYTHONPATH=os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src"), *inherited])),
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert list(results) == names_run(HAVE_NUMPY and not block_numpy)
    assert_same_bytes(results, first_pass)
