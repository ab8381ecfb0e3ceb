import json
import math
import time

import numpy as np
import pytest

from enthier.errors import NegativeCoefficient, NotNormalized, ParseError
from enthier.linalg import seeded_rng
from enthier.statefile import parse_density, parse_state, state_document, write_state
from enthier.states import from_schmidt, random_pure, schmidt_spectrum
from helpers import same_state


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def test_parse_schmidt_document_six_digit_coefficients(tmp_path):
    # coefficients rounded to six digits still pass the normalization gate
    path = write_doc(
        tmp_path, "psi.json", {"dims": [3, 3], "schmidt": [0.707107, 0.632456, 0.316228]}
    )
    state, _ = parse_state(path)
    assert np.allclose(schmidt_spectrum(state), [0.5, 0.4, 0.1], atol=1e-6)


def test_parse_amplitude_document(tmp_path):
    path = write_doc(
        tmp_path, "product.json", {"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1, "im": 0}]}
    )
    state, _ = parse_state(path)
    assert state.amplitudes[0, 0] == 1.0
    assert state.dim_a == 2 and state.dim_b == 2


def test_parse_amplitude_im_optional(tmp_path):
    path = write_doc(tmp_path, "s.json", {"dims": [2, 2], "amplitudes": [{"i": 1, "j": 1, "re": 1}]})
    assert parse_state(path)[0].amplitudes[1, 1] == 1.0


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"schmidt": [1.0]}, "dims"),
        ({"dims": [2], "schmidt": [1.0, 0.0]}, "dims"),
        ({"dims": [2, 0], "schmidt": [1.0, 0.0]}, "dims"),
        ({"dims": [2, 2]}, "exactly one"),
        ({"dims": [2, 2], "schmidt": [1.0, 0.0], "amplitudes": []}, "exactly one"),
        ({"dims": [2, 2], "schmidt": [1.0, 0.0], "extra": 1}, "extra"),
        ({"dims": [2, 2], "amplitudes": []}, "amplitudes"),
        ({"dims": [2, 2], "amplitudes": [{"j": 0, "re": 1}]}, "i"),
        ({"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0}]}, "re"),
        ({"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": "x"}]}, "re"),
        ({"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1, "k": 2}]}, "k"),
        ({"dims": [2, 2], "schmidt": "nope"}, "schmidt"),
        ({"dims": [2, 2], "schmidt": [1.0, "x"]}, "schmidt"),
        ({"dims": [3, 3], "schmidt": [1.0, 0.0]}, "dims"),
        ({"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": True}]}, "re"),
        ({"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1, "im": False}]}, "im"),
        ({"dims": [2, 2], "schmidt": [True, False]}, "schmidt"),
    ],
)
def test_parse_state_structural_errors(tmp_path, payload, fragment):
    path = write_doc(tmp_path, "bad.json", payload)
    with pytest.raises(ParseError) as err:
        parse_state(path)
    assert fragment in str(err.value)


def test_parse_state_invalid_json_reports_position(tmp_path):
    path = write_doc(tmp_path, "broken.json", '{"dims": [2, 2],')
    with pytest.raises(ParseError) as err:
        parse_state(path)
    assert "line" in str(err.value)


def test_parse_state_missing_file():
    with pytest.raises(ParseError):
        parse_state("/nonexistent/state.json")


def test_parse_state_domain_errors_pass_through(tmp_path):
    path = write_doc(tmp_path, "unnorm.json", {"dims": [2, 2], "schmidt": [0.5, 0.5]})
    with pytest.raises(NotNormalized):
        parse_state(path)
    assert parse_state(path, renormalize=True)
    path = write_doc(tmp_path, "neg.json", {"dims": [2, 2], "schmidt": [1.0, -0.1]})
    with pytest.raises(NegativeCoefficient):
        parse_state(path, renormalize=True)


def test_state_round_trip_exact(tmp_path):
    rng = seeded_rng(501)
    for index in range(10):
        state = random_pure(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
        path = tmp_path / f"state{index}.json"
        write_state(state, path)
        recovered, _ = parse_state(path)
        assert same_state(recovered, state)  # bit-identical amplitudes after JSON round trip


def test_state_document_sparse():
    state = random_pure(2, 2, seeded_rng(502))
    document = state_document(state)
    assert document["dims"] == [2, 2]
    assert len(document["amplitudes"]) == 4
    # zero amplitudes are omitted
    document = state_document(from_schmidt([1.0, 0.0]))
    assert document["amplitudes"] == [{"i": 0, "j": 0, "re": 1.0, "im": 0.0}]


def test_parse_density_roundtrip(tmp_path):
    rho = np.eye(4) / 4.0
    payload = {
        "dims": [4],
        "matrix": [[float(rho[i, j].real), float(rho[i, j].imag)] for i in range(4) for j in range(4)],
    }
    path = write_doc(tmp_path, "rho.json", payload)
    assert np.array_equal(parse_density(path)[0].matrix, rho.astype(complex))


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"matrix": [[0.25, 0]] * 16}, "dims"),
        ({"dims": [2, 2], "matrix": [[0.25, 0]] * 16}, "dims"),
        ({"dims": [4]}, "matrix"),
        ({"dims": [4], "matrix": [[0.25, 0]] * 15}, "matrix"),
        ({"dims": [4], "matrix": [[0.25, 0]] * 15 + [[0.25]]}, "matrix[15]"),
        ({"dims": [4], "matrix": [[0.25, 0]] * 16, "junk": True}, "junk"),
        ({"dims": [4], "matrix": [[True, 0]] + [[0.25, 0]] * 15}, "matrix[0]"),
    ],
)
def test_parse_density_structural_errors(tmp_path, payload, fragment):
    path = write_doc(tmp_path, "bad_rho.json", payload)
    with pytest.raises(ParseError) as err:
        parse_density(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"dims": [3, 3], "schmidt": [1, 0, 0], "schmidt": [0.6, 0.8, 0]}', "schmidt"),
        ('{"dims": [2, 2], "dims": [2, 2], "schmidt": [1, 0]}', "dims"),
        ('{"dims": [2, 2], "amplitudes": [{"i": 0, "j": 0, "re": 1, "re": 2}]}', "re"),
        ('{"dims": [2, 2], "amplitudes": [{"i": 0, "i": 1, "j": 0, "re": 1}]}', "i"),
    ],
)
def test_parse_state_rejects_duplicate_fields(tmp_path, text, key):
    path = write_doc(tmp_path, "twice.json", text)
    with pytest.raises(ParseError) as err:
        parse_state(path)
    assert str(err.value) == f"{path}: duplicate field {key!r}"


def test_duplicate_field_named_in_order_of_first_appearance(tmp_path):
    # 'b' is the first to repeat, but 'a' is the first of the repeated fields
    path = write_doc(tmp_path, "twice.json", '{"a": 1, "b": 1, "b": 2, "a": 2, "dims": [1, 1], "schmidt": [1]}')
    with pytest.raises(ParseError) as err:
        parse_state(path)
    assert str(err.value) == f"{path}: duplicate field 'a'"


def test_duplicate_field_among_many_refused_in_linear_time(tmp_path):
    # 40,000 distinct fields, the last named twice: a count per key would be
    # quadratic, about a minute for this half-megabyte document
    fields = "".join(f', "x{n}": 0' for n in range(40_000))
    path = write_doc(tmp_path, "wide.json", '{"dims": [2, 2], "schmidt": [1, 0]%s, "x39999": 1}' % fields)
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_state(path)
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == f"{path}: duplicate field 'x39999'"


def test_parse_density_rejects_duplicate_fields(tmp_path):
    matrix = json.dumps([[0.25, 0.0] if i % 5 == 0 else [0.0, 0.0] for i in range(16)])
    path = write_doc(tmp_path, "twice_rho.json", f'{{"dims": [4], "matrix": {matrix}, "matrix": {matrix}}}')
    with pytest.raises(ParseError) as err:
        parse_density(path)
    assert "duplicate field 'matrix'" in str(err.value)


def fields_text(fields):
    return "{" + ", ".join(f'"{name}": {value}' for name, value in fields) + "}"


def test_every_field_named_twice_is_refused_where_the_last_value_alone_is_valid(tmp_path):
    # the document the last values make is valid, so only the repeat can refuse it
    entries = [[("i", i), ("j", j), ("re", 0.5), ("im", 0.0)] for i in range(2) for j in range(2)]
    top = [("dims", "[2, 2]"), ("amplitudes", None)]
    path = tmp_path / "twice.json"

    def text(entries, top):
        amplitudes = "[" + ", ".join(fields_text(entry) for entry in entries) + "]"
        return fields_text([(name, amplitudes if value is None else value) for name, value in top])

    def refused(document, name):
        path.write_text(document)
        with pytest.raises(ParseError) as err:
            parse_state(path)
        return str(err.value) == f"{path}: duplicate field {name!r}"

    path.write_text(text(entries, top))
    parse_state(path)
    for spelled in (str, lambda name: "\\u%04x" % ord(name[0]) + name[1:]):
        for position, (name, value) in enumerate(top):
            repeated = top[: position + 1] + [(spelled(name), value)] + top[position + 1 :]
            assert refused(text(entries, repeated), name)
        for n, entry in enumerate(entries):
            for position, (name, value) in enumerate(entry):
                repeated = entry[: position + 1] + [(spelled(name), value)] + entry[position + 1 :]
                assert refused(text(entries[:n] + [repeated] + entries[n + 1 :], top), name)


def test_field_names_spelled_with_escapes_parse_as_themselves(tmp_path):
    text = '{"d\\u0069ms": [2, 2], "amplitudes": [{"\\u0069": 1, "j": 1, "r\\u0065": 1}]}'
    path = write_doc(tmp_path, "escaped.json", text)
    state, _ = parse_state(path)
    assert state.amplitudes[1, 1] == 1.0


def test_the_same_bytes_give_back_the_same_object(tmp_path):
    path = write_doc(tmp_path, "psi.json", {"dims": [2, 2], "schmidt": [0.6, 0.8]})
    state, digest = parse_state(path)
    again, again_digest = parse_state(path)
    assert again is state and again_digest == digest
    # other arguments, or another document built between, build afresh
    assert parse_state(path, renormalize=True)[0] is not state
    matrix = [[0.25 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
    rho = write_doc(tmp_path, "rho.json", {"dims": [4], "matrix": matrix})
    density, _ = parse_density(rho)
    assert parse_density(rho)[0] is density
    assert parse_state(path)[0] is not state
