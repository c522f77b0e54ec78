"""End-to-end checks of the command-line surface via main(argv) and the console script."""

import builtins
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import combatkit
from combatkit import aot, errors
from combatkit.aot import bundled_stage3_path, read_records, write_records
from combatkit.cli import main
from test_rows import HUGE_INT, HUGE_INT_REASON, needs_digit_limit

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_session"
ITEMS = DATA / "bench_items.jsonl"
PREDICTIONS = DATA / "bench_predictions.jsonl"
BUNDLED = bundled_stage3_path()

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT_HEADER = re.compile(r"\[\s*([^\]]+?)\s*\]\s*(?:#.*)?")
SCRIPT_ENTRY = re.compile(r"""["']?([\w.-]+)["']?\s*=\s*(["'])(.*?)\2\s*(?:#.*)?""")
ENTRY_POINT = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*:[A-Za-z_]\w*")
SCRIPT_TIMEOUT_S = 60

# `loss check` is the one verb that needs numpy; every other test here runs without it
needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="loss check needs numpy"
)

TRUNC = "⟨TRUNC⟩"
EOS = "⟨EOS⟩"
DEEP = "[" * 100_000  # nested deeper than the JSON decoder can recurse


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def read_jsonl(path):
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def wrote(csv_path, json_path):
    return f"wrote {csv_path} and {json_path}\n"


def names_an_error_class(name):
    """True if ``name`` is a ``CombatkitError`` subclass in ``combatkit.errors``
    or an ``OSError`` subclass in ``builtins``: the classes ``main`` reports."""
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.CombatkitError):
        return True
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, OSError)


# ------------------------------------------------------------------ track

def test_track_import_counts(capsys):
    code, out, err = run(capsys, "track", "import", "--dir", GOLDEN)
    assert code == 0 and err == ""
    summary = json.loads(out)
    assert summary == {
        "frames": 8,
        "events": 4,
        "intervals": 1,
        "meta": {"epoch_ms": "0", "game_mode": "BMW"},
    }


def test_track_align_writes_rows(capsys, tmp_path):
    out_path = tmp_path / "aligned.jsonl"
    code, out, _ = run(capsys, "track", "align", "--dir", GOLDEN, "--out", out_path)
    assert code == 0
    assert json.loads(out) == {"out": str(out_path), "aligned": 2, "dropped": 0}
    # space tap at 40 ms lands on the 100 ms frame, the w hold on the next
    assert read_jsonl(out_path) == [
        {"action": "press space", "frame_index": 2, "t_ms": 40},
        {"action": "hold w for 0.5 seconds", "frame_index": 3, "t_ms": 120},
    ]


def test_track_align_requires_out_and_leaves_the_session_as_it_was(capsys, tmp_path):
    session = shutil.copytree(GOLDEN, tmp_path / "session")
    before = sorted(p.name for p in session.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(["track", "align", "--dir", str(session)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in session.iterdir()) == before


@pytest.mark.parametrize("verb", [("track", "align"), ("aot", "build", "--stage", "1")])
def test_tap_threshold_is_an_unknown_setting(capsys, tmp_path, verb):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tap_threshold_ms": 200}))
    code, out, err = run(
        capsys, *verb, "--config", cfg, "--dir", GOLDEN, "--out", tmp_path / "o.jsonl"
    )
    assert code == 1 and out == ""
    assert "unknown setting 'tap_threshold_ms'" in json.loads(err)["message"]


def test_track_export_is_byte_identical(capsys, tmp_path):
    out_dir = tmp_path / "exported"
    code, out, _ = run(capsys, "track", "export", "--dir", GOLDEN, "--out", out_dir)
    assert code == 0
    assert json.loads(out)["out"] == str(out_dir)
    for name in ("meta.json", "frames.jsonl", "events.jsonl", "intervals.jsonl"):
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "epoch_ms, reason",
    [
        ("abc", "meta value of 'epoch_ms' is not an integer: 'abc'"),
        (
            "999999999999999999",
            "meta value of 'epoch_ms' puts t_ms 0 outside years 1-9999: '999999999999999999'",
        ),
    ],
)
def test_track_export_refuses_an_epoch_it_cannot_date(capsys, tmp_path, epoch_ms, reason):
    session = tmp_path / "session"
    shutil.copytree(GOLDEN, session)
    meta = session / "meta.json"
    meta.write_text(meta.read_text().replace('"epoch_ms": "0"', f'"epoch_ms": "{epoch_ms}"'))
    code, out, err = run(capsys, "track", "export", "--dir", session, "--out", tmp_path / "out")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "UnencodableMeta", "message": reason}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["session"]


def test_missing_dir_fails_with_json_error(capsys, tmp_path):
    code, out, err = run(capsys, "track", "import", "--dir", tmp_path / "nope")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert "nope" in payload["message"]
    # a file is not a session directory
    code, out, err = run(capsys, "track", "import", "--dir", GOLDEN / "meta.json")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "NotADirectoryError"
    assert "meta.json" in payload["message"]


def test_session_dir_missing_a_file_fails_with_json_error(capsys, tmp_path):
    # an empty directory, such as the parent of a session directory, is no session
    code, out, err = run(capsys, "track", "import", "--dir", tmp_path)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert str(tmp_path / "meta.json") in payload["message"]
    partial = tmp_path / "partial"
    shutil.copytree(GOLDEN, partial)
    (partial / "events.jsonl").unlink()
    code, out, err = run(capsys, "track", "import", "--dir", partial)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert str(partial / "events.jsonl") in payload["message"]


# ----------------------------------------------------- episode to stage 3

def test_episode_export_then_stage3_build(capsys, tmp_path):
    code, out, _ = run(
        capsys, "agent", "run", "--task", 1, "--seed", 7, "--out", tmp_path / "ep"
    )
    assert code == 0
    # stdout is the written report, byte for byte, and a rerun with the
    # same seed prints the same bytes
    assert out.encode("utf-8") == (tmp_path / "ep" / "report.json").read_bytes()
    assert run(capsys, "agent", "run", "--task", 1, "--seed", 7)[1] == out
    shown = json.loads(out)
    assert shown["success"] is True
    assert shown["policy_calls"] == shown["decision_cycles"]
    # shown tokens are rounded to 3 dp, so allow that much slack here
    assert shown["mean_latency_ms"] == pytest.approx(
        shown["mean_emitted_tokens"] / 40.0 * 1000.0, abs=0.02
    )
    session_dir = tmp_path / "ep" / "session"
    for name in ("meta.json", "frames.jsonl", "events.jsonl", "intervals.jsonl"):
        assert (session_dir / name).exists()

    stage3 = tmp_path / "stage3.jsonl"
    code, out, _ = run(
        capsys, "aot", "build", "--stage", 3, "--dir", session_dir, "--out", stage3
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["records"] == shown["decision_cycles"]
    assert summary["skipped"] == 0
    for row in read_jsonl(stage3):
        assert row["stage"] == 3
        assert row["serialized"].count(TRUNC) == 1
        assert row["serialized"].endswith(EOS)


# -------------------------------------------------------------------- aot

def test_aot_split_partitions_and_reruns_identically(capsys, tmp_path):
    argv = ["aot", "split", "--in", BUNDLED, "--split", "0.9", "--seed", "3"]
    code, out, _ = run(
        capsys, *argv, "--train-out", tmp_path / "tr.jsonl", "--val-out", tmp_path / "va.jsonl"
    )
    assert code == 0
    assert json.loads(out) == {"train": 76, "val": 8, "seed": 3, "split": 0.9}
    code, _, _ = run(
        capsys, *argv, "--train-out", tmp_path / "tr2.jsonl", "--val-out", tmp_path / "va2.jsonl"
    )
    assert code == 0
    assert (tmp_path / "tr.jsonl").read_bytes() == (tmp_path / "tr2.jsonl").read_bytes()
    assert (tmp_path / "va.jsonl").read_bytes() == (tmp_path / "va2.jsonl").read_bytes()
    split = [r.serialized for r in read_records(tmp_path / "tr.jsonl")] + [
        r.serialized for r in read_records(tmp_path / "va.jsonl")
    ]
    assert sorted(split) == sorted(r.serialized for r in read_records(BUNDLED))


def test_aot_stats_summarizes_bundled(capsys):
    code, out, _ = run(capsys, "aot", "stats", "--in", BUNDLED)
    assert code == 0
    stats = json.loads(out)
    assert stats["records"] == 84
    assert stats["by_stage"] == {"3": 84}
    assert stats["mean_serialized_tokens"] > 0


# ------------------------------------------------------------------- loss

@needs_numpy
def test_loss_check_csv_table(capsys, tmp_path):
    code, out, err = run(
        capsys, "loss", "check", "--points", 5, "--dim", 8, "--out", tmp_path / "grad"
    )
    assert code == 0 and err == wrote(tmp_path / "grad.csv", tmp_path / "grad.json")
    lines = out.splitlines()
    assert lines[0] == "component,analytic_grad_norm,fd_grad_norm,max_rel_error"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "contrastive_pull",
        "contrastive_push",
        "alignment",
    ]
    assert (tmp_path / "grad.csv").read_text() == out
    stored = json.loads((tmp_path / "grad.json").read_text())
    assert len(stored["rows"]) == 3
    assert all(row["max_rel_error"] < 1e-4 for row in stored["rows"])


@needs_numpy
@pytest.mark.parametrize(
    "out_name, written",
    [
        ("run.v2.csv", ("run.v2.csv", "run.v2.json")),
        ("x.json", ("x.csv", "x.json")),
        ("x.csv", ("x.csv", "x.json")),
    ],
)
def test_loss_check_out_keeps_inner_suffix(capsys, tmp_path, out_name, written):
    code, out, err = run(
        capsys, "loss", "check", "--points", 1, "--dim", 4, "--out", tmp_path / out_name
    )
    assert code == 0 and err == wrote(tmp_path / written[0], tmp_path / written[1])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    assert (tmp_path / written[0]).read_text() == out
    assert len(json.loads((tmp_path / written[1]).read_text())["rows"]) == 3


@needs_numpy
def test_loss_check_fails_at_an_error_above_the_tolerance(capsys):
    # the worst relative error here is about 2e-10
    code, out, err = run(capsys, "loss", "check", "--points", 2, "--dim", 4, "--tolerance", 1e-12)
    assert code == 1
    assert out.startswith("component,")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload.keys() == {"error", "message"} and payload["error"] == "ValidationError"
    assert re.fullmatch(r"max relative error \S+ >= tolerance 1\.0e-12", payload["message"])


# no needs_numpy: the tolerance is checked before the checker and numpy load
@pytest.mark.parametrize("tolerance", ["nan", "inf", 0.0, -1e-4])
def test_loss_check_rejects_a_tolerance_that_is_not_positive_and_finite(capsys, tolerance):
    code, out, err = run(capsys, "loss", "check", "--points", 3, "--dim", 8,
                         "--tolerance", tolerance)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "tolerance must be a positive finite number" in payload["message"]


# ----------------------------------------------------------------- decode

def test_decode_run_both_modes(capsys, tmp_path):
    rows_path = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "decode", "run", "--in", BUNDLED, "--mode", "truncated", "--out", rows_path
    )
    assert code == 0
    truncated = json.loads(out)
    rows = read_jsonl(rows_path)
    assert len(rows) == truncated["records"] == 84
    assert all(set(r) == {"index", "mode", "stop_reason", "emitted_tokens", "actions"} for r in rows)
    assert all(r["stop_reason"] == "trunc" for r in rows)

    code, out, _ = run(capsys, "decode", "run", "--in", BUNDLED, "--mode", "full")
    assert code == 0
    full = json.loads(out)
    assert truncated["mean_emitted_tokens"] / full["mean_emitted_tokens"] < 0.45


def test_decode_run_paced_writes_the_unpaced_rows(capsys, tmp_path):
    # pacing costs wall time only: the rows and the mean emission are unchanged
    head = tmp_path / "head.jsonl"
    write_records(read_records(BUNDLED)[:8], head)
    for source, mode in ((BUNDLED, "truncated"), (head, "full")):
        runs = []
        for pace in ((), ("--pace", 1000)):
            rows_path = tmp_path / f"{mode}{len(pace)}.jsonl"
            code, out, _ = run(
                capsys, "decode", "run", "--in", source, "--mode", mode, "--out", rows_path, *pace
            )
            assert code == 0
            runs.append((rows_path.read_bytes(), json.loads(out)["mean_emitted_tokens"]))
        assert runs[0] == runs[1], mode


def test_decode_run_prints_actions_in_priority_order(capsys, tmp_path):
    # a hand-written clause out of priority order: heal (r) outranks dodge (space)
    clause = "press space, press r"
    record = {
        "action_text": clause,
        "explanation": "x",
        "frame_refs": [1, 2, 3, 4],
        "question": "Please predict the next actions based on the frame sequence.",
        "serialized": f"[{clause}] {TRUNC} [x] {EOS}",
        "stage": 3,
    }
    in_path = tmp_path / "one.jsonl"
    in_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rows_path = tmp_path / "rows.jsonl"
    code, _, _ = run(capsys, "decode", "run", "--in", in_path, "--out", rows_path)
    assert code == 0
    assert [r["actions"] for r in read_jsonl(rows_path)] == ["press r, press space"]


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_decode_run_without_records_is_typed_error(capsys, tmp_path, text):
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "decode", "run", "--in", empty)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload == {"error": "EmptyDataset", "message": f"{empty}: no records to decode"}


def test_decode_savings_defaults_to_bundled(capsys, tmp_path):
    code, out, _ = run(capsys, "decode", "savings", "--out", tmp_path / "savings")
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == str(BUNDLED)
    assert payload["records"] == 84
    assert payload["ratio"] < 0.45
    csv_text = (tmp_path / "savings.csv").read_text()
    assert csv_text.splitlines()[0] == "records,mean_full_tokens,mean_truncated_tokens,ratio"
    assert json.loads((tmp_path / "savings.json").read_text())["ratio"] == payload["ratio"]


# ------------------------------------------------------------------ agent

def test_agent_suite_csv_and_file_determinism(capsys, tmp_path):
    argv = ["agent", "suite", "--tasks", "1,2", "--repeats", "2", "--seed", "42"]
    code, out, _ = run(capsys, *argv, "--out", tmp_path / "suite")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "task_id,mode,repeats,success_rate,mean_latency_ms,mean_cycles"
    assert len(lines) == 3 and lines[1].startswith("1,truncated,2,")
    assert (tmp_path / "suite.csv").read_text() == out

    stored = json.loads((tmp_path / "suite.json").read_text())
    assert [ref["system"] for ref in stored["reference_latencies"]] == [
        "cradle",
        "varp",
        "truncated_reference",
    ]
    assert "wall" not in (tmp_path / "suite.json").read_text()

    code, _, _ = run(capsys, *argv, "--out", tmp_path / "again")
    assert code == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "suite.csv").read_bytes()
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "suite.json").read_bytes()


_SPLIT = ("aot", "split", "--in", "{bundled}", "--seed", 0,
          "--train-out", "{tmp}/train.jsonl", "--val-out", "{tmp}/val.jsonl")
_BUILD = ("aot", "build", "--dir", "{golden}", "--stage", 3)

# (argv, part of the ConfigError message); "{tmp}", "{bundled}" and
# "{golden}" are filled in when the test runs, so no checkout path enters
# a test id
_CONFIG_ERRORS = [
    (("agent", "suite", "--tasks", "1", "--seed", 0, "--repeats", 0), "repeats must be"),
    (("agent", "suite", "--tasks", "1", "--seed", 0, "--repeats", -1), "repeats must be"),
    (("agent", "suite", "--tasks", "1", "--seed", 0, "--pace-tokens-per-second", 0),
     "pace must be"),
    (("agent", "run", "--task", 1, "--seed", 0, "--pace-tokens-per-second", -4),
     "pace must be"),
    (("bench", "gen", "--seed", 0, "--tasks", "1", "--gathering", -5),
     "category gathering: target count -5 is negative"),
    (("bench", "gen", "--seed", 0, "--tasks", "1", "--episodes-per-task", 0),
     "episodes_per_task must be at least 1, got 0"),
    (("agent", "suite", "--tasks", "99", "--seed", 0), "unknown task ids [99]"),
    (("agent", "suite", "--tasks", "1,1", "--seed", 0), "repeats task ids [1]"),
    (("bench", "gen", "--seed", 0, "--tasks", ""), "selects no task"),
    ((*_SPLIT, "--split", "nan"), "split_fraction must be inside (0, 1), got nan"),
    ((*_SPLIT, "--split", 1.5), "split_fraction must be inside (0, 1), got 1.5"),
    ((*_BUILD, "--n", 0), "n, m and k_frames must be positive, got 0, 10, 4"),
    ((*_BUILD, "--m", 0), "n, m and k_frames must be positive, got 20, 0, 4"),
    ((*_BUILD, "--m", "100000000000000000000"),
     "m must be at most 1000 frames/sec, got 100000000000000000000"),
    ((*_BUILD, "--k-frames", 0), "n, m and k_frames must be positive, got 20, 10, 0"),
    ((*_BUILD, "--merge-window-ms", -1), "merge_window_ms cannot be negative, got -1"),
    (("decode", "run", "--in", "{bundled}", "--budget", 0),
     "token budget must be positive, got 0"),
    (("decode", "run", "--in", "{bundled}", "--pace", "1e-300"), "and finite, got 1e-300"),
    (("agent", "suite", "--tasks", "1", "--seed", 0, "--pace-tokens-per-second", "1e-320"),
     "and finite, got 1e-320"),
    (("agent", "run", "--task", 1, "--seed", 0, "--pace-tokens-per-second", "1e-320"),
     "and finite, got 1e-320"),
    pytest.param(("loss", "check", "--step", "nan"), "step h must lie in [1e-7, 1e-3], got nan",
                 marks=needs_numpy),
    pytest.param(("loss", "check", "--dim", -1), "dim from 2 to 4096, got -1",
                 marks=needs_numpy),
    pytest.param(("loss", "check", "--dim", 1), "dim from 2 to 4096, got 1", marks=needs_numpy),
    pytest.param(("loss", "check", "--seed", -1), "seed of at least 0, got -1",
                 marks=needs_numpy),
]


def _argv_id(value):
    return " ".join(map(str, value)) if isinstance(value, tuple) else None


def _fill(argv, tmp_path):
    """``argv`` as strings, its placeholders filled in."""
    return [
        str(a).format(tmp=tmp_path, bundled=BUNDLED, golden=GOLDEN, items=ITEMS,
                      predictions=PREDICTIONS)
        for a in argv
    ]


def _with_out(argv):
    """``argv`` with ``--out`` under ``{tmp}``; ``aot split`` names its two outputs instead."""
    return argv if "--train-out" in argv else (*argv, "--out", "{tmp}/out")


@pytest.mark.parametrize("argv, reason", _CONFIG_ERRORS, ids=_argv_id)
def test_out_of_range_counts_and_pace_are_config_errors(capsys, tmp_path, argv, reason):
    # every output goes under tmp_path, which must stay empty
    code, out, err = run(capsys, *_fill(_with_out(argv), tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and reason in payload["message"]
    assert list(tmp_path.iterdir()) == []


def _failure(argv, *written, marks=()):
    """A failing run of ``argv``, named by it, that leaves the ``written`` files in ``{tmp}``."""
    return pytest.param(argv, written, marks=marks, id=_argv_id(argv))


def _config_error_argvs():
    """Each ``_CONFIG_ERRORS`` row's argv, with ``--out`` and the row's marks."""
    for row in _CONFIG_ERRORS:
        (argv, _reason), marks = (row.values, row.marks) if hasattr(row, "marks") else (row, ())
        yield _failure(_with_out(argv), marks=marks)


@pytest.mark.parametrize(
    "argv, written",
    [
        *_config_error_argvs(),
        _failure(("bench", "score", "--items", "{tmp}/bad_items.jsonl",
                  "--predictions", "{predictions}")),
        _failure(("bench", "score", "--items", "{items}",
                  "--predictions", "{tmp}/bad_predictions.jsonl")),
        _failure(("bench", "validate", "--in", "{tmp}/bad_items.jsonl")),
        _failure(("loss", "check", "--points", 2, "--dim", 4, "--tolerance", 1e-12),
                 marks=needs_numpy),
        # fails after writing its --out files, and its one line names neither
        _failure(("loss", "check", "--points", 2, "--dim", 4, "--tolerance", 1e-12,
                  "--out", "{tmp}/grad"), "grad.csv", "grad.json", marks=needs_numpy),
    ],
)
def test_every_error_line_names_an_error_class(capsys, tmp_path, argv, written):
    # one refusal contract: exit 1 and one JSON line whose `error` is a
    # CombatkitError subclass in combatkit.errors or an OSError subclass,
    # whatever files the verb wrote before it failed
    items = ITEMS.read_text(encoding="utf-8").splitlines()[:2]
    items[1] = json.dumps(dict(json.loads(items[1]), gold="Maybe"))
    (tmp_path / "bad_items.jsonl").write_text("\n".join(items) + "\n", encoding="utf-8")
    predictions = PREDICTIONS.read_text(encoding="utf-8").splitlines()[0]
    (tmp_path / "bad_predictions.jsonl").write_text(
        predictions + '\n{"id": "x"}\n', encoding="utf-8"
    )
    code, _, err = run(capsys, *_fill(argv, tmp_path))
    assert code == 1
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload.keys() == {"error", "message"}
    assert names_an_error_class(payload["error"]), payload["error"]
    for name in written:
        assert (tmp_path / name).is_file()


def test_agent_run_checks_the_pace_without_out(capsys):
    code, out, err = run(
        capsys, "agent", "run", "--task", 1, "--seed", 0, "--pace-tokens-per-second", 0
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and "pace must be" in payload["message"]


@pytest.mark.parametrize("exc", [KeyError("stage"), ValueError("not a record")], ids=repr)
def test_a_handler_bug_propagates_out_of_main(capsys, monkeypatch, exc):
    # only a CombatkitError or an OSError is a refused input; anything else is a bug
    def broken(records):
        raise exc

    monkeypatch.setattr(aot, "dataset_stats", broken)  # the handler reads it through cli
    with pytest.raises(type(exc)) as raised:
        main(["aot", "stats", "--in", str(BUNDLED)])
    assert raised.value is exc
    assert capsys.readouterr() == ("", "")


def test_agent_seed_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["agent", "run", "--task", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# ----------------------------------------------------------------- config

def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"split": 0.5}))
    code, out, _ = run(
        capsys,
        "aot", "split", "--config", cfg, "--in", BUNDLED, "--split", "0.9", "--seed", 3,
        "--train-out", tmp_path / "tr.jsonl", "--val-out", tmp_path / "va.jsonl",
    )
    assert code == 0
    assert json.loads(out) == {"train": 42, "val": 42, "seed": 3, "split": 0.5}


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "aot", "stats", "--config", cfg, "--in", BUNDLED)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "unknown setting 'bogus'" in payload["message"]


@needs_numpy
def test_config_values_convert_like_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "7", "points": "2"}))
    code, out, err = run(capsys, "loss", "check", "--dim", 4, "--out", tmp_path / "a",
                         "--config", cfg)
    assert code == 0 and err == wrote(tmp_path / "a.csv", tmp_path / "a.json")
    flags = run(capsys, "loss", "check", "--dim", 4, "--seed", 7, "--points", 2,
                "--out", tmp_path / "b")
    assert flags == (0, out, wrote(tmp_path / "b.csv", tmp_path / "b.json"))
    stored = json.loads((tmp_path / "a.json").read_text())
    assert stored["seed"] == 7 and [row["points"] for row in stored["rows"]] == [2, 2, 2]


@pytest.mark.parametrize(
    "setting, reason",
    [
        ({"seed": "seven"}, "invalid int value 'seven'"),
        ({"points": 2.5}, "invalid int value '2.5'"),
        ({"points": True}, "must be a string or a number"),
        ({"step": [1e-5]}, "must be a string or a number"),
    ],
)
def test_config_value_type_mismatch_rejected(capsys, tmp_path, setting, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    code, out, err = run(capsys, "loss", "check", "--dim", 4, "--config", cfg)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert reason in payload["message"]


def test_config_value_outside_choices_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "fast"}))
    code, _, err = run(capsys, "decode", "run", "--in", BUNDLED, "--config", cfg)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "'fast' is not one of 'truncated', 'full'" in payload["message"]


@pytest.mark.parametrize(
    "text, reason",
    [
        (b'{"seed":\n "\xff"}', ":2: not UTF-8: invalid start byte at byte 3"),
        (DEEP.encode(), ":1: bad JSON: nested deeper than the decoder can recurse"),
        pytest.param(
            f'{{"seed":\n {HUGE_INT}}}'.encode(), f":1: {HUGE_INT_REASON}", marks=needs_digit_limit
        ),
    ],
    ids=["not-utf8", "deep", "huge-int"],
)
def test_config_not_utf8_or_nested_too_deeply_is_config_error(capsys, tmp_path, text, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    code, out, err = run(capsys, "aot", "stats", "--config", cfg, "--in", BUNDLED)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ConfigError", "message": f"{cfg}{reason}"}


def test_config_with_a_repeated_key_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "seed": 2}\n')
    code, out, err = run(capsys, "aot", "stats", "--config", cfg, "--in", BUNDLED)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ConfigError", "message": f"{cfg}:1: bad JSON: repeated key 'seed'"
    }


# ------------------------------------------------------------------ bench

def test_bench_validate_fixture(capsys):
    code, out, err = run(capsys, "bench", "validate", "--in", ITEMS)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["counts"] == {"gathering": 360, "comprehension": 204, "reasoning": 350}
    assert report["violations"] == []


def test_bench_validate_flags_bad_items(capsys, tmp_path):
    items = read_jsonl(ITEMS)[:3]
    items[1]["frame_refs"] = items[1]["frame_refs"] * 2  # gathering must cite one frame
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(i) + "\n" for i in items))
    code, _, err = run(capsys, "bench", "validate", "--in", bad)
    assert code == 1
    assert json.loads(err)["error"] == "ValidationError"


def test_bench_validate_flags_a_repeated_fixture_line(capsys, tmp_path):
    line = ITEMS.read_text(encoding="utf-8").splitlines()[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(f"{line}\n{line}\n", encoding="utf-8")
    code, out, err = run(capsys, "bench", "validate", "--in", bad)
    assert code == 1
    report = json.loads(out)
    assert report["total"] == 1
    assert report["violations"] == ["line 2: field 'id': repeats the id of line 1"]
    assert json.loads(err) == {"error": "ValidationError", "message": f"{bad}: 1 schema violations"}


@pytest.mark.parametrize("line", ["5", "[]"])
@pytest.mark.parametrize("flag", ["--in", "--predictions"])
def test_bench_non_object_line_is_parse_error(capsys, tmp_path, flag, line):
    source = ITEMS if flag == "--in" else PREDICTIONS
    bad = tmp_path / "bad.jsonl"
    bad.write_text(source.read_text(encoding="utf-8").splitlines()[0] + f"\n{line}\n")
    if flag == "--in":
        code, out, err = run(capsys, "bench", "validate", "--in", bad)
    else:
        code, out, err = run(capsys, "bench", "score", "--items", ITEMS, "--predictions", bad)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ParseError", "message": f"{bad}:2: expected a JSON object"}


@needs_digit_limit
@pytest.mark.parametrize("flag", ["--items", "--predictions"])
def test_bench_score_names_the_line_of_an_integer_past_the_digit_limit(capsys, tmp_path, flag):
    source = ITEMS if flag == "--items" else PREDICTIONS
    bad = tmp_path / "bad.jsonl"
    head = source.read_bytes().splitlines(keepends=True)[0]
    bad.write_bytes(head + f'{{"id": {HUGE_INT}}}\n'.encode())
    files = {"--items": ITEMS, "--predictions": PREDICTIONS, flag: bad}
    code, out, err = run(capsys, "bench", "score", *(x for kv in files.items() for x in kv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ParseError", "message": f"{bad}:2: {HUGE_INT_REASON}"}


def test_bench_non_list_choices_is_violation_with_file_and_line(capsys, tmp_path):
    lines = ITEMS.read_text(encoding="utf-8").splitlines()[:2]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        lines[0] + "\n" + json.dumps(dict(json.loads(lines[1]), choices=1.5)) + "\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "bench", "validate", "--in", bad)
    assert code == 1
    report = json.loads(out)
    assert report["total"] == 1
    assert report["violations"] == ["line 2: field 'choices': binary items offer Yes/No"]
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ValidationError", "message": f"{bad}: 1 schema violations"}
    code, out, err = run(capsys, "bench", "score", "--items", bad, "--predictions", PREDICTIONS)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"{bad}:2: field 'choices': binary items offer Yes/No",
    }


def test_bench_score_invalid_item_names_items_file(capsys, tmp_path):
    lines = ITEMS.read_text(encoding="utf-8").splitlines()[:3]
    bad = tmp_path / "items.jsonl"
    bad.write_text(
        "\n".join([*lines[:2], json.dumps(dict(json.loads(lines[2]), gold="Perhaps"))]) + "\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "bench", "score", "--items", bad, "--predictions", PREDICTIONS)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"{bad}:3: field 'gold'")


def test_bench_score_reports_an_invalid_item_ahead_of_a_later_line_that_is_not_utf8(
    capsys, tmp_path
):
    # the text reader decodes ahead of the lines it hands out; line 2's
    # problem must still come before line 4's undecodable byte
    lines = ITEMS.read_text(encoding="utf-8").splitlines()[:3]
    lines[1] = json.dumps(dict(json.loads(lines[1]), gold="Perhaps"))
    bad = tmp_path / "items.jsonl"
    bad.write_bytes("\n".join(lines).encode("utf-8") + b'\n{"id": "\xff"}\n')
    code, out, err = run(capsys, "bench", "score", "--items", bad, "--predictions", PREDICTIONS)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"{bad}:2: field 'gold'")


def test_bench_gen_defaults_rebuild_the_committed_items(capsys, tmp_path):
    # unset, the tasks, episodes and category counts are the canonical
    # ones scripts/build_fixtures.py builds the fixture with (seed 0)
    out_path = tmp_path / "items.jsonl"
    code, out, _ = run(capsys, "bench", "gen", "--out", out_path, "--seed", 0)
    assert code == 0
    assert json.loads(out)["counts"] == {"gathering": 360, "comprehension": 204, "reasoning": 350}
    assert out_path.read_bytes() == ITEMS.read_bytes()


def test_bench_gen_validates_cleanly(capsys, tmp_path):
    out_path = tmp_path / "items.jsonl"
    code, out, _ = run(
        capsys,
        "bench", "gen", "--out", out_path, "--seed", 0, "--tasks", "1,6",
        "--episodes-per-task", 2, "--gathering", 36, "--comprehension", 20, "--reasoning", 21,
    )
    assert code == 0
    assert json.loads(out)["items"] == 77
    code, out, _ = run(capsys, "bench", "validate", "--in", out_path)
    assert code == 0
    assert json.loads(out)["counts"] == {"gathering": 36, "comprehension": 20, "reasoning": 21}


def test_bench_score_reproduces_fixture_numbers(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "bench", "score", "--items", ITEMS, "--predictions", PREDICTIONS,
        "--out", tmp_path / "score",
    )
    assert code == 0
    assert "macro_average" in out and "63.61" in out
    stored = json.loads((tmp_path / "score.json").read_text())
    assert stored["accuracies"] == {
        "gathering": 60.83,
        "comprehension": 60.29,
        "reasoning": 69.71,
    }
    assert stored["macro_average"] == 63.61


# ----------------------------------------------------------------- report

@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("loss", "check", "--points", 1, "--dim", 4), marks=needs_numpy),
        ("agent", "suite", "--tasks", "1", "--repeats", 1, "--seed", 0),
        ("bench", "score", "--items", ITEMS, "--predictions", PREDICTIONS),
        ("report", "--suite", "{suite}"),
        ("decode", "savings"),
    ],
    ids=lambda argv: " ".join(map(str, argv[:2])),
)
def test_report_writers_name_their_files_on_stderr(capsys, tmp_path, argv):
    suite = tmp_path / "suite-in.json"
    suite.write_text('{"rows": []}', encoding="utf-8")
    argv = [str(suite) if a == "{suite}" else a for a in argv]
    code, plain_out, plain_err = run(capsys, *argv)
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, *argv, "--out", tmp_path / "written")
    assert code == 0
    assert err == wrote(tmp_path / "written.csv", tmp_path / "written.json")
    assert (tmp_path / "written.csv").exists() and (tmp_path / "written.json").exists()
    if argv[0] != "decode":  # the savings payload names no output
        assert out == plain_out


def test_report_combines_sections(capsys, tmp_path):
    run(capsys, "agent", "suite", "--tasks", "1", "--repeats", "1", "--seed", 42,
        "--out", tmp_path / "suite")
    run(capsys, "bench", "score", "--items", ITEMS, "--predictions", PREDICTIONS,
        "--out", tmp_path / "score")
    code, out, _ = run(
        capsys,
        "report", "--suite", tmp_path / "suite.json", "--bench", tmp_path / "score.json",
        "--out", tmp_path / "combined",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,metric,value"
    assert "reference,cradle_latency_s,61.68" in lines
    assert "reference,varp_latency_s,90.23" in lines
    assert "reference,truncated_reference_latency_s,1.85" in lines
    combined = json.loads((tmp_path / "combined.json").read_text())
    assert set(combined) == {"suite", "token_savings", "benchmark", "reference_latencies"}
    assert combined["benchmark"]["macro_average"] == 63.61
    assert combined["token_savings"]["ratio"] < 0.45


@pytest.mark.parametrize("flag", ["--suite", "--savings", "--bench"])
@pytest.mark.parametrize(
    "text",
    [
        "[1]", "5", "{", pytest.param(DEEP, id="deep"), pytest.param('{"\udcff": 1}', id="not-utf8"),
        pytest.param(f'{{"rows": {HUGE_INT}}}', id="huge-int", marks=needs_digit_limit),
    ],
)
def test_report_input_that_is_not_an_object_is_parse_error(capsys, tmp_path, flag, text):
    suite = tmp_path / "suite.json"
    suite.write_text("{}", encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    paths = {"--suite": suite, flag: bad}
    code, out, err = run(capsys, "report", *(x for kv in paths.items() for x in kv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"{bad}:1: ")


@pytest.mark.parametrize(
    "flag, payload, reason",
    [
        ("--suite", {"rows": {"task_id": 1}}, "rows must be a list"),
        ("--suite", {"rows": [1]}, "rows[0]: must be an object with a task_id"),
        (
            "--suite",
            {"rows": [{"task_id": 1, "success_rate": None, "mean_latency_ms": 1.0}]},
            "rows[0]: field 'success_rate' is not a number: None",
        ),
        (
            "--suite",
            {
                "rows": [
                    {"task_id": 1, "success_rate": 1, "mean_latency_ms": 1},  # integers pass
                    {"task_id": 2, "success_rate": True, "mean_latency_ms": 1.0},
                ]
            },
            "rows[1]: field 'success_rate' is not a number: True",
        ),
        (
            "--suite",
            {"rows": [{"task_id": 1, "success_rate": 1.0}]},
            "rows[0]: missing field 'mean_latency_ms'",
        ),
        (
            "--suite",
            {"rows": [{"task_id": 1, "success_rate": 10**400, "mean_latency_ms": 1}]},
            "rows[0]: field 'success_rate' is beyond the float range",
        ),
        ("--bench", {"accuracies": [60.0]}, "benchmark 'accuracies' must be an object"),
    ],
    ids=[
        "rows-not-list", "row-not-object", "null-number", "bool-number", "missing-number",
        "float-overflow", "accuracies-not-object",
    ],
)
def test_report_malformed_section_is_parse_error(capsys, tmp_path, flag, payload, reason):
    suite = tmp_path / "suite.json"
    suite.write_text("{}", encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    paths = {"--suite": suite, flag: bad}
    code, out, err = run(capsys, "report", *(x for kv in paths.items() for x in kv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ParseError", "message": f"{bad}:1: {reason}"}


def declared_console_scripts():
    """Return the `[project.scripts]` table of the repository's pyproject.toml.

    Only that one table of `name = "module:attr"` lines is read, with the
    standard library alone: `tomllib` exists only from Python 3.11 and the
    project supports 3.10.
    """
    scripts, in_table = {}, False
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        header = SCRIPT_HEADER.fullmatch(line)
        if header:
            in_table = header.group(1) == "project.scripts"
        elif in_table and line and not line.startswith("#"):
            entry = SCRIPT_ENTRY.fullmatch(line)
            assert entry, f"unreadable [project.scripts] line: {line!r}"
            scripts[entry.group(1)] = entry.group(3)
    return scripts


def source_console_script(*argv):
    """Run the declared `combatkit` entry point the way an installer's wrapper does.

    The child imports the same `combatkit` package that these tests import,
    not whatever an install put on `PATH`.
    """
    target = declared_console_scripts().get("combatkit")
    assert target, f"{PYPROJECT} declares no combatkit console script"
    assert ENTRY_POINT.fullmatch(target), f"entry {target!r} is not module:attr"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{target} does not name a callable"
    )
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'combatkit'; sys.exit({attr}())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(combatkit.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=SCRIPT_TIMEOUT_S,
    )


def test_console_script_is_installed():
    proc = source_console_script("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: combatkit"), proc.stdout
    # The verbs are read from the usage line's choices: "tracking" and
    # "benchmarks" elsewhere in the help would satisfy a bare substring test.
    verbs = re.search(r"\{(.*?)\}", proc.stdout)
    assert verbs and {"track", "bench"} <= set(verbs.group(1).split(",")), proc.stdout


@pytest.mark.skipif(
    shutil.which("combatkit") is None, reason="combatkit is not installed on PATH"
)
def test_installed_console_script_serves_this_checkout():
    installed = subprocess.run(
        [shutil.which("combatkit"), "--help"],
        capture_output=True, text=True, timeout=SCRIPT_TIMEOUT_S,
    )
    assert installed.returncode == 0, installed.stderr
    source = source_console_script("--help")
    assert source.returncode == 0, source.stderr
    assert installed.stdout == source.stdout, (
        "the combatkit on PATH prints other help than this checkout; is it a stale install?"
    )


@needs_numpy
@pytest.mark.parametrize("points", [0, -1])
def test_loss_check_rejects_fewer_than_one_point(capsys, points):
    code, out, err = run(capsys, "loss", "check", "--points", points, "--dim", 4)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "at least 1 point" in payload["message"]


@pytest.mark.parametrize(
    "field, value, reason",
    [
        pytest.param(
            "action_text", "press banana", "unknown action binding: 'banana'",
            id="action_text-press banana",
        ),
        pytest.param("stage", "x", "field 'stage' is not an integer: 'x'", id="stage-x"),
        pytest.param("frame_refs", ..., "missing field 'frame_refs'", id="frame_refs-missing"),
    ],
)
def test_aot_stats_names_bad_record_line(capsys, tmp_path, field, value, reason):
    lines = BUNDLED.read_text(encoding="utf-8").splitlines()[:2]
    record = dict(json.loads(lines[1]), **{field: value})
    if value is ...:
        del record[field]
    bad = tmp_path / "stage3.jsonl"
    bad.write_text(lines[0] + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "aot", "stats", "--in", bad)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ParseError", "message": f"{bad}:2: {reason}"}


@pytest.mark.parametrize("verb", [("aot", "stats"), ("decode", "run")])
@pytest.mark.parametrize(
    "change, reason",
    [
        (
            {
                "action_text": "hold w for 0.25 seconds",
                "explanation": "x",
                "serialized": f"[press r] {TRUNC} [x] {EOS}",
            },
            "field 'serialized' is not the stage-3 form of the record",
        ),
        ({"stage": 4}, "stage must be 1, 2 or 3, got 4"),
    ],
    ids=["serialized-names-another-action", "stage-4"],
)
def test_a_record_that_contradicts_itself_or_has_no_stage_layout_is_refused(
    capsys, tmp_path, verb, change, reason
):
    lines = BUNDLED.read_text(encoding="utf-8").splitlines()[:2]
    bad = tmp_path / "stage3.jsonl"
    bad.write_text(
        lines[0] + "\n" + json.dumps(dict(json.loads(lines[1]), **change)) + "\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, *verb, "--in", bad)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"{bad}:2: {reason}")


@pytest.mark.parametrize("verb", [("aot", "stats"), ("decode", "run"), ("bench", "validate")])
@pytest.mark.parametrize(
    "line, reason",
    [
        (b'{"a": "\xff"}', "not UTF-8: invalid start byte at byte 8"),
        (DEEP.encode(), "bad JSON: nested deeper than the decoder can recurse"),
        pytest.param(
            f'{{"id": {HUGE_INT}}}'.encode(), HUGE_INT_REASON, marks=needs_digit_limit
        ),
    ],
    ids=["not-utf8", "deep", "huge-int"],
)
def test_jsonl_input_that_is_not_utf8_or_nests_too_deeply_names_file_and_line(
    capsys, tmp_path, verb, line, reason
):
    source = ITEMS if verb[0] == "bench" else BUNDLED
    bad = tmp_path / "in.jsonl"
    bad.write_bytes(b"".join(source.read_bytes().splitlines(keepends=True)[:3]) + line + b"\n")
    code, out, err = run(capsys, *verb, "--in", bad)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message": f"{bad}:4: {reason}"}
