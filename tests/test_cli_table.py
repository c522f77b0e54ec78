"""The CLI's verb table against the full parser built from it.

``main`` builds every group, the chosen group's verbs by name and help,
and only the chosen verb's flags; ``build_parser`` builds every verb in
full from the same table. So every help screen and usage error must read
the same from both, and a verb's ``--config`` keys must be its table flags.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import combatkit
from combatkit import cli
from combatkit.errors import ConfigError

VERBS = list(cli._VERBS)
GROUPS = list(cli._GROUPS)
SCRIPT_TIMEOUT_S = 60


def words(group, name):
    return [group] if name is None else [group, name]


def exits(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


def assert_same(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    lazy = exits(capsys, cli.main, argv)
    assert lazy[0] == code, lazy
    assert lazy == exits(capsys, full_parse, argv)
    return lazy


def test_top_level_help(capsys, monkeypatch):
    _, out, _ = assert_same(capsys, monkeypatch, ["--help"], 0)
    assert "{" + ",".join(GROUPS) + "}" in out


@pytest.mark.parametrize("group", GROUPS)
def test_group_help(capsys, monkeypatch, group):
    assert_same(capsys, monkeypatch, [group, "--help"], 0)


@pytest.mark.parametrize("verb", VERBS, ids=lambda v: " ".join(filter(None, v)))
def test_verb_help(capsys, monkeypatch, verb):
    _, out, _ = assert_same(capsys, monkeypatch, [*words(*verb), "--help"], 0)
    assert "--config CONFIG" in out


@pytest.mark.parametrize(
    "verb",
    [v for v in VERBS if any(flag.required for flag in cli._VERBS[v].flags)],
    ids=lambda v: " ".join(filter(None, v)),
)
def test_missing_required_flag(capsys, monkeypatch, verb):
    _, out, err = assert_same(capsys, monkeypatch, words(*verb), 2)
    assert out == "" and "the following arguments are required: --" in err


def test_unknown_group(capsys, monkeypatch):
    _, _, err = assert_same(capsys, monkeypatch, ["nope", "run"], 2)
    assert "invalid choice: 'nope'" in err


@pytest.mark.parametrize("group", sorted({g for g, name in VERBS if name is not None}))
def test_unknown_verb(capsys, monkeypatch, group):
    _, _, err = assert_same(capsys, monkeypatch, [group, "nope", "--help"], 2)
    assert "invalid choice: 'nope'" in err


def _valid_value(flag):
    if flag.choices is not None:
        return flag.choices[-1]
    return {int: 3, float: 0.5, None: "x"}[flag.type]


@pytest.mark.parametrize("verb", VERBS, ids=lambda v: " ".join(filter(None, v)))
def test_config_keys_are_the_table_flags(capsys, monkeypatch, tmp_path, verb):
    table = cli._VERBS[verb]
    names = {flag.name for flag in table.flags}
    monkeypatch.setenv("COLUMNS", "80")
    _, out, _ = exits(capsys, full_parse, [*words(*verb), "--help"])
    assert set(re.findall(r"(?m)^\s+(?:-h, )?--([\w-]+)", out)) - {"help", "config"} == names

    cfg = tmp_path / "cfg.json"
    for flag in table.flags:
        for key in {flag.name, flag.name.replace("-", "_")}:
            cfg.write_text(json.dumps({key: _valid_value(flag)}))
            args = argparse.Namespace(config=str(cfg))
            cli._apply_config(args, table)
            dest = flag.dest or flag.name.replace("-", "_")
            assert vars(args) == {"config": str(cfg), dest: _valid_value(flag)}

    # the dests argparse derives are no keys unless they are a flag's name
    others = {"help", "config", "func"} | ({f.dest for f in table.flags if f.dest} - names)
    for key in others:
        cfg.write_text(json.dumps({key: "x"}))
        with pytest.raises(ConfigError, match=f"unknown setting '{key}'"):
            cli._apply_config(argparse.Namespace(config=str(cfg)), table)


def test_loss_check_parser_leaves_numpy_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "from combatkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as help_text:\n"
        "    try:\n"
        "        cli.main(['loss', 'check', '--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "assert '--tolerance' in help_text.getvalue()\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(combatkit.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=SCRIPT_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
