"""A seeded mutation gate: malformed input through every reading verb keeps the CLI contract.

Each trial copies one input into its own directory, applies one seeded
mutation to it and runs one verb that reads it through ``cli.main`` in
process. Whatever the mutation did, ``main`` neither raises nor warns.
Exit 0 leaves only ``wrote X.csv and X.json`` notes on stderr, and exit 1
exactly one JSON line holding ``error``, which names a ``CombatkitError``
or ``OSError`` subclass, and ``message``. Every (input, verb, mutation)
triple runs once, seeded by its own name, so the trials are fixed.
The task file, which no verb takes as a flag, goes straight to
``arena.load_task_configs``, which must return or raise ``ConfigError``.
Nothing here needs numpy.
"""

import contextlib
import io
import json
import random
import re
import shutil
import warnings
from pathlib import Path

from combatkit import arena
from combatkit.aot import bundled_stage3_path
from combatkit.cli import main
from combatkit.errors import ConfigError
from test_cli import names_an_error_class

DATA = Path(__file__).parent / "data"
SESSION_FILES = ("frames.jsonl", "events.jsonl", "intervals.jsonl", "meta.json")
WROTE = re.compile(r"wrote \S.* and \S.*")

# Every input but the session, by its argv placeholder: a file to copy, or
# a JSON object to write as ``write_report`` writes one (indented by two).
INPUTS = {
    "stage3": bundled_stage3_path(),
    "items": DATA / "bench_items.jsonl",
    "predictions": DATA / "bench_predictions.jsonl",
    "suite": {"policy": "scripted", "seed": 0, "rows": [
        {"task_id": 1, "success_rate": 0.5, "mean_latency_ms": 12.25},
        {"task_id": 2, "success_rate": 1.0, "mean_latency_ms": 8.5}]},
    "savings": {"records": 3, "mean_full_tokens": 10.0, "mean_truncated_tokens": 4.0,
                "ratio": 0.4},
    "bench": {"accuracies": {"gathering": 50.0, "reasoning": 75.0}, "macro_average": 62.5},
    "config": {"n": 2, "m": 10, "k_frames": 1, "merge_window_ms": 50},
}

_SCORE = "bench score --items {items} --predictions {predictions} --out {out}/score"
_REPORT = "report --suite {suite} --savings {savings} --bench {bench} --out {out}/report"
# The verbs that read each input; ``{out}`` is the trial's directory.
READERS = {
    "session": (
        "track import --dir {session}",
        "track align --dir {session} --out {out}/aligned.jsonl",
        "track export --dir {session} --out {out}/exported",
        # the default windows build no stage-1 record from the golden session
        *(f"aot build --dir {{session}} --stage {stage}{flags} --out {{out}}/aot.jsonl"
          for stage in (1, 2, 3) for flags in ("", " --n 2 --k-frames 1")),
    ),
    "stage3": (
        "aot stats --in {stage3}",
        "aot split --in {stage3} --seed 0 --train-out {out}/train.jsonl --val-out {out}/val.jsonl",
        "decode run --in {stage3} --out {out}/decoded.jsonl",
        "decode savings --in {stage3} --out {out}/savings",
    ),
    "items": ("bench validate --in {items}", _SCORE),
    "predictions": (_SCORE,),
    "suite": (_REPORT,),
    "savings": (_REPORT,),
    "bench": (_REPORT,),
    "config": tuple(
        f"aot build --dir {{session}} --stage {stage} --out {{out}}/aot.jsonl --config {{config}}"
        for stage in (1, 2, 3)
    ),
}


# -------------------------------------------------------------- mutations

def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _truncate(data, path, rng):
    return data[: rng.randrange(len(data))]  # bytes: a cut may split a character


def _drop_line(data, path, rng):
    lines = _lines(data)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _duplicate_line(data, path, rng):
    lines = _lines(data)
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])
    return b"".join(lines)


def _prepend_bom(data, path, rng):
    return b"\xef\xbb\xbf" + data


def _fields(value, found):
    """``found`` plus every ``(container, key)`` under a JSON value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return found
    for key, item in items:
        found.append((value, key))
        _fields(item, found)
    return found


def _field_edit(edit):
    """A mutation applying ``edit(container, key, rng)`` to one seeded field.

    The field is one of a JSON file's, or of one JSONL line's, at any
    depth.
    """
    def mutate(data, path, rng):
        if path.suffix == ".json":
            obj = json.loads(data)
            edit(*rng.choice(_fields(obj, [])), rng)
            return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        lines = _lines(data)
        i = rng.randrange(len(lines))
        obj = json.loads(lines[i])
        edit(*rng.choice(_fields(obj, [])), rng)
        lines[i] = (json.dumps(obj, sort_keys=True) + "\n").encode()
        return b"".join(lines)
    return mutate


def _retype(container, key, rng):
    value = container[key]
    container[key] = rng.choice(
        [other for other in (None, True, 7, -2.5, "x", [], {}) if type(other) is not type(value)]
    )


def _delete(container, key, rng):
    del container[key]


def _renest(container, key, rng):
    container[key] = rng.choice(({str(key): container[key]}, [container[key]]))


class _Object(dict):
    """A decoded JSON object that ``json.dumps`` writes with ``repeats`` after its items."""

    repeats = ()

    def items(self):
        return [*super().items(), *self.repeats]


def _repeat_key(data, path, rng):
    """Give one seeded key of one object, at any depth, a second entry after
    its first: the same value or one of another type. Keys keep their order,
    so nothing else moves."""
    def mutate(text):
        obj = json.loads(text, object_pairs_hook=_Object)
        container, key = rng.choice([f for f in _fields(obj, []) if isinstance(f[0], dict)])
        repeat = rng.choice((container[key], None, True, 7, -2.5, "x", [], {}))
        container.repeats = [(key, repeat)]
        return obj

    if path.suffix == ".json":
        return (json.dumps(mutate(data), indent=2) + "\n").encode()
    lines = _lines(data)
    i = rng.randrange(len(lines))
    lines[i] = (json.dumps(mutate(lines[i])) + "\n").encode()
    return b"".join(lines)


MUTATIONS = {
    "truncate": _truncate,
    "drop-line": _drop_line,
    "duplicate-line": _duplicate_line,
    "retype-field": _field_edit(_retype),
    "delete-field": _field_edit(_delete),
    "renest-field": _field_edit(_renest),
    "prepend-bom": _prepend_bom,
    "repeat-key": _repeat_key,
}


# ----------------------------------------------------------------- trials

def _pristine(root: Path) -> dict[str, Path]:
    """Write every input under ``root``; its path by placeholder."""
    shutil.copytree(DATA / "golden_session", root / "session")
    paths = {"session": root / "session"}
    for name, source in INPUTS.items():
        path = paths[name] = root / (name + getattr(source, "suffix", ".json"))
        if isinstance(source, Path):
            shutil.copyfile(source, path)
        else:
            path.write_text(json.dumps(source, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def _trials():
    """``(input, file, verb, mutation)`` for every input file, verb reading it and mutation;
    ``file`` is the session file for a session input, or ``None``."""
    for name, verbs in READERS.items():
        for file in SESSION_FILES if name == "session" else (None,):
            for verb in verbs:
                for mutation in MUTATIONS:
                    yield name, file, verb, mutation


def _run(argv: list[str]):
    """``main(argv)``'s exit code, or what it raised; its stderr; the warnings it raised."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        # pytest would record a warning, not show it; "always" lets none pass unseen
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = exc
    return code, stderr.getvalue(), caught


def _broken_contract(code, stderr: str, caught) -> str | None:
    """How one run broke the CLI contract, or ``None``."""
    if isinstance(code, BaseException):
        return f"main raised {code!r}"
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    lines = stderr.splitlines()
    if code == 0:
        notes = [line for line in lines if not WROTE.fullmatch(line)]
        return f"exit 0 with stderr {notes}" if notes else None
    if code != 1:
        return f"exit {code}"
    if len(lines) != 1:
        return f"exit 1 with {len(lines)} stderr lines: {lines}"
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return f"exit 1 with a stderr line that is not JSON: {lines[0]!r}"
    if not isinstance(payload, dict) or payload.keys() != {"error", "message"}:
        return f"exit 1 with an error line other than error and message: {lines[0]!r}"
    if not names_an_error_class(payload["error"]):
        return f"exit 1 naming {payload['error']!r}, no CombatkitError or OSError subclass"
    return None


def test_mutated_inputs_keep_the_cli_contract(tmp_path):
    pristine = _pristine(tmp_path / "pristine")
    broken, codes = [], set()
    for n, (name, file, verb, mutation) in enumerate(_trials()):
        trial = tmp_path / f"trial{n}"
        paths = dict(pristine, out=trial)
        if file is None:
            target = paths[name] = trial / pristine[name].name
            trial.mkdir()
            shutil.copyfile(pristine[name], target)
        else:
            paths["session"] = shutil.copytree(pristine["session"], trial / "session")
            target = paths["session"] / file
        rng = random.Random(f"{name}/{file}/{verb}/{mutation}")
        target.write_bytes(MUTATIONS[mutation](target.read_bytes(), target, rng))
        argv = [word.format(**paths) for word in verb.split()]
        code, stderr, caught = _run(argv)
        codes.add(code if isinstance(code, int) else None)
        problem = _broken_contract(code, stderr, caught)
        if not problem and mutation == "repeat-key" and target.suffix == ".json" and code != 1:
            # a whole-file JSON input means one thing or is refused
            problem = f"exit {code} on a repeated key"
        if problem:
            broken.append(f"{mutation} {target.relative_to(trial)} | {verb}: {problem}")
    assert broken == []
    assert codes == {0, 1}


TASK_FILE = Path(arena.__file__).with_name("data") / "tasks.json"
TASK_FILE_SEEDS = range(300)


def test_mutated_task_files_load_or_raise_config_error(tmp_path):
    pristine = TASK_FILE.read_bytes()
    target = tmp_path / TASK_FILE.name
    broken, outcomes = [], {"loaded": 0, "ConfigError": 0}
    for mutation, mutate in MUTATIONS.items():
        for seed in TASK_FILE_SEEDS:
            target.write_bytes(mutate(pristine, target, random.Random(f"tasks/{mutation}/{seed}")))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    arena.load_task_configs(target)
                    outcome = "loaded"
                except ConfigError:
                    outcome = "ConfigError"
                except Exception as exc:
                    outcome = repr(exc)
            if caught:
                outcome = f"warned {caught[0].category.__name__}: {caught[0].message}"
            elif mutation == "repeat-key" and outcome == "loaded":
                outcome = "loaded with a repeated key"
            if outcome in outcomes:
                outcomes[outcome] += 1
            else:
                broken.append(f"{mutation} seed {seed}: {outcome}")
    assert broken == []
    assert outcomes["loaded"] and outcomes["ConfigError"]
