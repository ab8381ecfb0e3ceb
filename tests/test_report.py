"""The report's JSON writer gives the bytes of json.dumps(..., indent=2, allow_nan=False)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enthier.report import ReportDocument

derandomized = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", " ", "\U0001f600", "\ud800", "a\"b\\c"]
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
texts = st.text() | st.sampled_from(SPECIAL_TEXT)
floats = (
    FINITE_FLOATS
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1])
    | FINITE_FLOATS.map(np.float64)
)
leaves = (
    texts
    | st.booleans()
    | st.none()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**80)
    | st.integers(max_value=-(2**63) + 2, min_value=-(2**80))
    | floats
    | st.lists(FINITE_FLOATS)  # the float-only lists most of a report holds
)
payloads = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=40,
)


def dumps(results, provenance=None):
    payload = {"command": "c", "results": results, "provenance": provenance or {}}
    return json.dumps(payload, indent=2, allow_nan=False)


def written(results, provenance=None):
    return ReportDocument("c", results, provenance or {}).to_json()


@derandomized
@given(payloads, st.dictionaries(texts, payloads, max_size=3))
@example([], {})
@example({}, {"": [{}, [], ()]})
@example([1.0, np.float64(2.5), 3.0], {"k": (0.5, -0.0, 5e-324)})
@example([1.0, 2, True, None, "x"], {"ints": [2**63, -(2**63) - 1, 0]})
def test_writer_is_json_dumps_byte_for_byte(results, provenance):
    assert written(results, provenance) == dumps(results, provenance)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")], ids=repr)
@pytest.mark.parametrize(
    "place",
    [
        lambda bad: bad,
        lambda bad: [0.5, bad, 0.25],
        lambda bad: [bad],
        lambda bad: [1, bad],
        lambda bad: (0.5, bad),
        lambda bad: {"k": {"nested": [[0.1, bad]]}},
    ],
    ids=["scalar", "float-list", "alone", "mixed-list", "tuple", "nested"],
)
def test_non_finite_floats_raise_value_error_in_both(bad, place):
    with pytest.raises(ValueError) as dumped:
        dumps(place(bad))
    with pytest.raises(ValueError) as ours:
        written(place(bad))
    assert str(ours.value) == str(dumped.value)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.bool_(True), np.array([0.5]), complex(1, 2), {1.0}, object(), b"bytes"],
    ids=["int64", "bool_", "ndarray", "complex", "set", "object", "bytes"],
)
def test_values_json_refuses_raise_type_error_in_both(value):
    with pytest.raises(TypeError):
        dumps([value])
    with pytest.raises(TypeError):
        written([value])


@pytest.mark.parametrize("key", [1, 0.5, True, None], ids=repr)
def test_non_string_keys_raise_type_error(key):
    # json.dumps would write these keys as strings; no report holds one
    with pytest.raises(TypeError):
        written({key: 1})
