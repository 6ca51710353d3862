"""The input readers: one rule for reading a JSON value as its type, and
one reader for every input file.

A value passes ``json_value`` only when its JSON type is exactly the one
asked for; an integer also passes as a number, and a boolean never
passes as either.  ``read_input`` and ``read_json`` raise the caller's
error class, naming the file as the caller passed it, a ``str`` or a
``Path``, for a file that is missing, is a directory, is not UTF-8 or
is not JSON.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxdistill.priority import json_field, json_value, read_input, read_json

KINDS = (bool, int, float, str, list, dict)

# kind -> whether a parsed JSON value has that JSON type, stated per kind
ACCEPTS = {
    bool: lambda v: v is True or v is False,
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    list: lambda v: isinstance(v, list),
    dict: lambda v: isinstance(v, dict),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
).map(lambda value: json.loads(json.dumps(value)))


class CallerError(ValueError):
    """Stands for a caller's own error class."""


@given(value=json_values, kind=st.sampled_from(KINDS))
def test_json_value_returns_the_same_object_exactly_when_the_type_matches(value, kind):
    if ACCEPTS[kind](value):
        assert json_value(value, kind, "field") is value
    else:
        with pytest.raises(ValueError, match="^field must be a JSON "):
            json_value(value, kind, "field")


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_a_non_finite_number_is_no_json_number(text):
    value = json.loads(text)
    with pytest.raises(ValueError, match="^n must be a finite JSON number"):
        json_value(value, float, "n")
    with pytest.raises(ValueError, match="^n must be a JSON integer"):
        json_value(value, int, "n")


@given(flag=st.booleans(), kind=st.sampled_from([int, float]))
def test_a_boolean_is_never_a_number(flag, kind):
    with pytest.raises(ValueError):
        json_value(flag, kind, "n")


@given(value=json_values, kind=st.sampled_from(KINDS), default=json_values)
def test_json_field_reads_a_present_non_null_value_by_json_value(value, kind, default):
    if value is None:
        return
    data = {"k": value}
    for args in ((), (default,)):
        if ACCEPTS[kind](value):
            assert json_field(data, "k", kind, *args) is value
        else:
            with pytest.raises(ValueError, match="^k must be a JSON "):
                json_field(data, "k", kind, *args)


@given(kind=st.sampled_from(KINDS), default=json_values)
def test_json_field_defaults(kind, default):
    assert json_field({}, "k", kind, default) is default
    assert json_field({"k": None}, "k", kind, None) is None
    with pytest.raises(ValueError, match="missing required key: k"):
        json_field({}, "k", kind)
    with pytest.raises(ValueError, match="^k must be a JSON "):
        json_field({"k": None}, "k", kind)
    if default is not None:
        with pytest.raises(ValueError, match="^k must be a JSON "):
            json_field({"k": None}, "k", kind, default)


@pytest.mark.parametrize("data", [[], "k", 5, None], ids=["array", "string", "integer", "null"])
def test_json_field_needs_an_object(data):
    with pytest.raises(ValueError, match="JSON object with k"):
        json_field(data, "k", str, "default")


# fault -> (how a file gets it, what the error says besides the path)
FILE_FAULTS = {
    "missing": (lambda path: None, "thing not found: "),
    "a-directory": (lambda path: path.mkdir(), "cannot read thing "),
    "not-utf8": (lambda path: path.write_bytes(b'{"a": "\xff"}'), "is not UTF-8"),
    "not-json": (lambda path: path.write_text("{not json", encoding="utf-8"), "is not valid JSON"),
}
# read_input reads text that is not JSON as it is; each case is run with
# a Path and with a str that spells the path unnormalised
CASES = [
    (reader, fault, as_str)
    for as_str in (False, True)
    for reader, fault in [(read_json, fault) for fault in FILE_FAULTS]
    + [(read_input, fault) for fault in FILE_FAULTS if fault != "not-json"]
]


@pytest.mark.parametrize(
    "reader, fault, as_str", CASES, ids=[f"{r.__name__}-{f}{'-str' * s}" for r, f, s in CASES]
)
def test_a_file_fault_raises_the_callers_error_naming_the_file(tmp_path, reader, fault, as_str):
    path = tmp_path / "input.json"
    make, message = FILE_FAULTS[fault]
    make(path)
    passed = f"{tmp_path}/./input.json" if as_str else path
    with pytest.raises(CallerError) as err:
        reader(passed, "thing", CallerError)
    assert str(passed) in str(err.value) and message in str(err.value)


def test_read_input_reads_universal_newlines(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_input(path, "thing", CallerError) == "a\nb\nc\n"
    assert read_input(str(path), "thing", CallerError) == "a\nb\nc\n"
    path.write_bytes(b'{"a":\r\n [1, 2.5, true, null]}')
    assert read_json(path, "thing", CallerError) == {"a": [1, 2.5, True, None]}
