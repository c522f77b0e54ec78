"""The on-disk row formats every command reads and writes.

A JSONL file holds one JSON object per line with sorted keys; readers
skip blank lines and refuse a line that is not a JSON object with
``ParseError(path, line)``. A report is a CSV table with ``\\n`` line
ends plus a JSON sibling (same stem, ``.json``) indented by two with
sorted keys, so reruns on the same inputs rewrite identical bytes.
Readers coerce no field but an integer in a float field, and refuse one
too large for a float: a bool is no integer, a number no string.

Rows move at the speed of the C JSON codec. ``read_jsonl`` decodes a
line with one shared decoder's ``raw_decode`` when nothing but its
``\n`` follows the object, the form every writer here produces, and
any other line with a ``strip()`` blank test and ``json.loads``; both
paths accept the same lines and raise the same ``ParseError``, also for
JSON nested deeper than the decoder can recurse and for an integer past
the interpreter's int-to-string digit limit. A file that is not UTF-8 is a
``ParseError`` naming its first undecodable line, also in ``read_json``;
``read_jsonl`` first yields every line before that one, so a caller's
check of an earlier line fails first.
``read_json`` refuses an object that gives a key twice, at any depth, as
``ParseError(path, 1, "bad JSON: repeated key 'k'")``, so a whole-file
input (a session's ``meta.json``, a config, the task file, a report input)
means one thing. JSONL readers still keep a repeated key's last value:
the same check there would slow every row.
Every reader here fails one way, a ``ParseError(path, line, reason)``:
a row ``read_rows`` or ``build_rows`` cannot build reads ``missing field
'x'`` or the builder's message, such as ``typed_field``'s.
``write_jsonl`` encodes with one shared key-sorting encoder, the bytes
``json.dumps(obj, sort_keys=True)`` gives, and writes each file in one call.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import CombatkitError, ParseError

__all__ = [
    "read_jsonl", "read_rows", "build_rows", "read_json", "read_json_object", "typed_field",
    "write_jsonl", "json_text", "csv_text", "write_report",
]

_raw_decode = json.JSONDecoder().raw_decode
_NESTED_TOO_DEEPLY = "nested deeper than the decoder can recurse"
_encode = json.JSONEncoder(sort_keys=True).encode


def _bad_json(exc: ValueError | RecursionError) -> str:
    """The reason of a ``ParseError`` for text the JSON decoder refused.

    Besides a ``JSONDecodeError`` and a ``RecursionError`` for nesting it
    cannot recurse into, the decoder raises a bare ``ValueError`` for an
    integer past the interpreter's int-to-string digit limit (4,300 digits
    by default), and ``read_json``'s hook one for a repeated key; none but
    the first says where, so ``read_json`` reports the others at line 1.
    """
    if isinstance(exc, json.JSONDecodeError):
        return f"bad JSON: {exc.msg}"
    if isinstance(exc, RecursionError):
        return f"bad JSON: {_NESTED_TOO_DEEPLY}"
    return f"bad JSON: {exc}"


def _undecodable(path: Path) -> ParseError:
    """The ``ParseError`` for ``path``'s first line that is not UTF-8."""
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(str(path), lineno, f"not UTF-8: {exc.reason} at byte {exc.start + 1}")
    return ParseError(str(path), 1, "not UTF-8")  # the file changed since it failed to decode


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL file."""
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        yield from _rows(p, enumerate(fh, start=1))


def _rows(p: Path, lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, dict]]:
    """``read_jsonl``'s rows from ``p``'s numbered lines."""
    lineno = 0
    try:
        for lineno, line in lines:
            try:
                obj, end = _raw_decode(line)
            except (ValueError, RecursionError):  # a JSONDecodeError is a ValueError
                end = len(line)  # nothing decoded: take the general path
            if line[end:] != "\n":
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(str(p), lineno, _bad_json(exc)) from None
            if not isinstance(obj, dict):
                raise ParseError(str(p), lineno, "expected a JSON object")
            yield lineno, obj
    except UnicodeDecodeError:
        error = _undecodable(p)
    else:
        return
    # The text reader decodes about 8 kB ahead of the lines it hands out, so
    # the lines after ``lineno`` and before the first undecodable one may
    # not have been read: read them as bytes, so a problem there comes first.
    rest = p.read_bytes().splitlines(keepends=True)[lineno:error.line - 1]
    yield from _rows(p, enumerate((raw.decode("utf-8") for raw in rest), start=lineno + 1))
    raise error


_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "a list"
}


def typed_field(obj: dict, key: str, kind: type) -> Any:
    """``obj[key]``, a ``KeyError`` if missing, a ``TypeError`` if not a JSON ``kind``;
    a float field takes a JSON integer, as a float (a ``ValueError`` if no float
    holds it), and only a bool field a bool."""
    value = obj[key]
    if type(value) is not kind:
        if kind is float and type(value) is int:
            try:
                return float(value)
            except OverflowError:
                raise ValueError(f"field {key!r} is beyond the float range") from None
        raise TypeError(f"field {key!r} is not {_TYPE_NAMES[kind]}: {value!r}")
    return value


def read_rows(path: str | Path, build: Callable[[dict], Any]) -> list:
    """``build(row)`` for each row of a JSONL file; a ``KeyError``, ``TypeError``,
    ``ValueError`` or ``CombatkitError`` it raises is a ``ParseError`` at the row's line."""
    return _built(path, read_jsonl(path), build)


def build_rows(path: str | Path, rows: list, build: Callable[[Any], Any]) -> list:
    """``build(row)`` for each row of ``rows``, a list from the JSON file ``path``;
    a bad row fails as in ``read_rows``, at line 1, its reason led by ``rows[i]: ``."""
    if not isinstance(rows, list):
        raise ParseError(str(Path(path)), 1, "rows must be a list")
    return _built(path, enumerate(rows), build, index=True)


def _built(path: str | Path, numbered: Iterable, build: Callable, index: bool = False) -> list:
    """``build(row)`` for each ``(n, row)``; ``n`` is a line, or with ``index`` a list index."""
    built, n = [], 0
    try:
        for n, row in numbered:
            built.append(build(row))
    except (KeyError, TypeError, ValueError, CombatkitError) as exc:
        if isinstance(exc, ParseError):
            raise
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        line, reason = (1, f"rows[{n}]: {reason}") if index else (n, reason)
        raise ParseError(str(Path(path)), line, reason) from None
    return built


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """One decoded JSON object; a key it gives twice is a ``ValueError``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def read_json(path: str | Path) -> Any:
    """The JSON value a UTF-8 file holds; a bad file is a ``ParseError`` naming it,
    an undecodable one its first line that is not UTF-8, and one with an
    object that repeats a key ``ParseError(path, 1, "bad JSON: repeated key 'k'")``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    except (ValueError, RecursionError) as exc:
        line = exc.lineno if isinstance(exc, json.JSONDecodeError) else 1
        raise ParseError(str(path), line, _bad_json(exc)) from None


def read_json_object(path: str | Path) -> dict:
    """A file holding one JSON object; anything else is a ``ParseError`` naming the file."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError(str(Path(path)), 1, "expected a JSON object")
    return obj


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> Path:
    """Write one key-sorted JSON object per line, creating parent directories."""
    p = Path(path)
    text = "".join([_encode(obj) + "\n" for obj in dicts])
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")
    return p


def json_text(obj: Any) -> str:
    """The indented, key-sorted JSON form of reports and command summaries."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A CSV table with a header row and ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_report(csv_path: str | Path, text: str, payload: Any) -> tuple[Path, Path]:
    """Write ``text`` to ``csv_path`` and ``payload`` to its ``.json`` sibling."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(text, encoding="utf-8")
    json_path = csv_path.with_suffix(".json")
    json_path.write_text(json_text(payload), encoding="utf-8")
    return csv_path, json_path
