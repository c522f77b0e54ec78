"""The JSONL row readers and writers every command goes through."""

import json
import math
import sys

import pytest

from combatkit.errors import EmptyDataset, ParseError
from combatkit.rows import (
    build_rows, read_json, read_json_object, read_jsonl, read_rows, typed_field, write_jsonl,
)


# The JSON decoder refuses an integer past the interpreter's int-to-string
# digit limit (4,300 digits by default) with a bare ValueError; without a
# limit (Python 3.10 before 3.10.7, or a limit of 0) there is nothing to refuse.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
HUGE_INT = "9" * (_DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int-to-string digit limit")

try:
    int(HUGE_INT)
except ValueError as exc:
    HUGE_INT_REASON = f"bad JSON: {exc}"
else:
    HUGE_INT_REASON = None  # no limit: the tests that use it skip


def _loads_loop(path):
    """The reference reader: ``json.loads`` on every line that is not blank."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(path), lineno, f"bad JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise ParseError(str(path), lineno, "expected a JSON object")
            rows.append((lineno, obj))
    return rows


def _outcome(read, path):
    try:
        return "rows", list(read(path))
    except ParseError as exc:
        return "error", (exc.path, exc.line, exc.reason)


@pytest.mark.parametrize(
    "text",
    [
        '{"a": 1}\n{"b": [2, {"c": null}]}\n',
        '{"a": 1}\n\n   \n\t\n{"b": 2}\n\n',
        '  {"a": 1}\n{"b": 2}   \n',
        '{"a": 1}\r\n{"b": 2}\r\n',
        '{"a": 1}\n{"b": 2}',
        '{} {}\n',
        '{"a": 1}\n{"a": 1}{"b": 2}\n',
        '{"a": NaN, "b": -Infinity}\n',
        '{"a": 1}\n5\n',
        '[]\n',
        '{"a":\n',
        '\ufeff{"a": 1}\n',
        '{"é": "  snowman ☃"}\n',
        "",
    ],
    ids=[
        "plain", "blank-lines", "padded", "crlf", "no-final-newline", "extra-data",
        "extra-object", "nan", "non-object", "array", "bad-json", "bom", "unicode", "empty",
    ],
)
def test_read_jsonl_matches_a_json_loads_loop(tmp_path, text):
    p = tmp_path / "rows.jsonl"
    p.write_bytes(text.encode("utf-8"))
    got, want = _outcome(read_jsonl, p), _outcome(_loads_loop, p)
    # NaN is not equal to itself, so compare the rows' JSON text
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# three rows of 4 kB, so line 4 starts past the text reader's first 8 kB chunk
_LONG_ROWS = b"".join(b'{"pad": "%s"}\n' % (b"x" * 4000) for _ in range(3))


@pytest.mark.parametrize(
    "line, reason",
    [
        (b'{"a": "\xff"}', "not UTF-8: invalid start byte at byte 8"),
        (b'{"a": "\xe2\x98"}', "not UTF-8: invalid continuation byte at byte 8"),
        (b"[" * 100_000, "bad JSON: nested deeper than the decoder can recurse"),
        (
            b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            "bad JSON: nested deeper than the decoder can recurse",
        ),
        pytest.param(
            b'{"a": ' + HUGE_INT.encode() + b"}", HUGE_INT_REASON, marks=needs_digit_limit
        ),
    ],
    ids=["not-utf8", "truncated-utf8", "deep", "deep-closed", "huge-int"],
)
def test_read_jsonl_names_the_line_that_is_not_utf8_or_nests_too_deeply(tmp_path, line, reason):
    p = tmp_path / "rows.jsonl"
    p.write_bytes(_LONG_ROWS + line + b"\n{}\n")
    with pytest.raises(ParseError) as err:
        list(read_jsonl(p))
    assert (err.value.path, err.value.line, err.value.reason) == (str(p), 4, reason)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("rows", [b"", _LONG_ROWS], ids=["short", "long"])
def test_read_jsonl_yields_every_line_before_the_first_that_is_not_utf8(tmp_path, rows, newline):
    p = tmp_path / "rows.jsonl"
    head = rows.replace(b"\n", newline) + newline.join([b'{"a": 1}', b"", b'{"b": 2}', b""])
    p.write_bytes(head + b'{"c": "\xff"}' + newline + b"{}" + newline)
    before = len(rows.splitlines())
    seen = []
    with pytest.raises(ParseError) as err:
        for lineno, obj in read_jsonl(p):
            seen.append((lineno, obj))
    assert seen[:before] == [(i, {"pad": "x" * 4000}) for i in range(1, before + 1)]
    assert seen[before:] == [(before + 1, {"a": 1}), (before + 3, {"b": 2})]
    assert err.value.line == before + 4
    assert err.value.reason == "not UTF-8: invalid start byte at byte 8"


def test_read_json_names_the_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "meta.json"
    # _LONG_ROWS's padding as members of one object, under distinct keys: a
    # repeated key is refused
    rows = b"".join(b'"pad%d": "%s",\n' % (i, b"x" * 4000) for i in range(3))
    p.write_bytes(b"{\n" + rows + b'"caf\xc3\xa9": 1,\r\n"na\xefve": 2}\n')
    with pytest.raises(ParseError) as err:
        read_json(p)
    assert (err.value.path, err.value.line) == (str(p), 6)
    assert err.value.reason == "not UTF-8: invalid continuation byte at byte 4"
    p.write_bytes(b"{\n" + rows + b'"caf\xc3\xa9": 1}\n')
    assert read_json(p) == {**{f"pad{i}": "x" * 4000 for i in range(3)}, "café": 1}


def test_write_jsonl_gives_json_dumps_bytes(tmp_path):
    rows = [
        {"b": 1, "a": [1.5, -0.0, 1e300, None, True], "c": {"z": "é ", "y": {}}},
        {},
        {"nan": math.nan, "inf": -math.inf, "big": 10**30},
    ]
    p = write_jsonl(tmp_path / "deep" / "dir" / "rows.jsonl", iter(rows))
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert p.read_bytes() == expected.encode("utf-8")
    assert write_jsonl(tmp_path / "empty.jsonl", []).read_bytes() == b""


def test_write_jsonl_leaves_the_file_alone_when_a_row_fails(tmp_path):
    p = write_jsonl(tmp_path / "rows.jsonl", [{"a": 1}])
    with pytest.raises(TypeError):
        write_jsonl(p, [{"a": 2}, {"b": object()}])
    assert p.read_text(encoding="utf-8") == '{"a": 1}\n'


def test_typed_field_takes_an_integer_for_a_float_but_a_bool_for_nothing_else():
    row = {"x": 2, "y": 2.5, "flag": True}
    assert typed_field(row, "x", float) == 2.0 and type(typed_field(row, "x", float)) is float
    assert typed_field(row, "y", float) == 2.5
    assert typed_field(row, "flag", bool) is True
    for kind, name in ((float, "a number"), (int, "an integer"), (str, "a string")):
        with pytest.raises(TypeError, match=f"^field 'flag' is not {name}: True$"):
            typed_field(row, "flag", kind)
    with pytest.raises(TypeError, match="^field 'y' is not an integer: 2.5$"):
        typed_field(row, "y", int)
    with pytest.raises(KeyError):
        typed_field(row, "z", float)


def _refuse(row):
    if row.get("empty"):
        raise EmptyDataset("no records")
    if row.get("parse"):
        raise ParseError("elsewhere.jsonl", 7, "kept as it is")
    return typed_field(row, "n", int)


@pytest.mark.parametrize(
    "row, reason",
    [
        ({}, "missing field 'n'"),
        ({"n": "1"}, "field 'n' is not an integer: '1'"),
        ({"empty": True}, "no records"),
    ],
)
def test_every_reader_gives_a_row_it_cannot_build_one_form(tmp_path, row, reason):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"n": 1}, row])
    with pytest.raises(ParseError) as err:
        read_rows(path, _refuse)
    assert (err.value.path, err.value.line, err.value.reason) == (str(path), 2, reason)
    with pytest.raises(ParseError) as err:
        build_rows(path, [{"n": 1}, row], _refuse)
    where = (err.value.path, err.value.line, err.value.reason)
    assert where == (str(path), 1, f"rows[1]: {reason}")


def test_a_parse_error_from_a_builder_passes_through(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"parse": True}])
    with pytest.raises(ParseError, match="^elsewhere.jsonl:7: kept as it is$"):
        read_rows(path, _refuse)
    with pytest.raises(ParseError, match="^elsewhere.jsonl:7: kept as it is$"):
        build_rows(path, [{"parse": True}], _refuse)
    assert read_rows(path, dict) == [{"parse": True}]
    with pytest.raises(ParseError, match=r":1: rows must be a list$"):
        build_rows(path, {"n": 1}, _refuse)


@pytest.mark.parametrize(
    "data, line, reason",
    [
        (b'{"a":\n', 2, "bad JSON: Expecting value"),
        (b"[1]", 1, "expected a JSON object"),
        (b'{"a": 1}\n{"b": "\xff"}', 2, "not UTF-8: invalid start byte at byte 8"),
        pytest.param(
            b'{"a": 1,\n "b": ' + HUGE_INT.encode() + b"}", 1, HUGE_INT_REASON,
            marks=needs_digit_limit,
        ),
    ],
    ids=["truncated", "not-an-object", "not-utf8", "huge-int"],
)
def test_read_json_object_names_the_file_and_line(tmp_path, data, line, reason):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        read_json_object(path)
    assert (err.value.path, err.value.line, err.value.reason) == (str(path), line, reason)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"a": 1, "b": 2, "a": 1}', "a"),
        ('{\n  "a": {"b": [1, {"c": 1, "c": 2}]}\n}\n', "c"),
        ('[{"x": null}, {"y": 1, "y": 1}]', "y"),
    ],
    ids=["top-level", "nested", "in-a-list"],
)
def test_read_json_refuses_a_repeated_key(tmp_path, text, key):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_json(path)
    assert (err.value.path, err.value.line, err.value.reason) == (
        str(path), 1, f"bad JSON: repeated key {key!r}"
    )
    # a key given once in each of two objects is no repeat
    path.write_text('{"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]}', encoding="utf-8")
    assert read_json(path) == {"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]}


def test_read_jsonl_keeps_the_last_value_of_a_repeated_key(tmp_path):
    # a known gap: a JSONL row reads as json.loads reads it, last value winning
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": 1, "a": 2}\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [(1, {"a": 2})]
