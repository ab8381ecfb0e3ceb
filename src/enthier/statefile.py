"""On-disk JSON documents for states and two-qubit densities.

A state document carries ``dims`` plus exactly one of ``amplitudes``
(sparse list of ``{i, j, re, im}`` objects) or ``schmidt`` (nonnegative
coefficients placed on the diagonal). A density document carries
``dims: [4]`` and a row-major ``matrix`` of 16 ``[re, im]`` pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import EnthierError, InvalidDensity, ParseError
from .states import PureState, from_amplitudes, from_schmidt

_STATE_KEYS = {"dims", "amplitudes", "schmidt"}
_ENTRY_KEYS = {"i", "j", "re", "im"}
_DENSITY_KEYS = {"dims", "matrix"}
# JSON numbers by exact type: true and false are not numbers, although bool subclasses int
_NUMBER_TYPES = (int, float)
_ENTRY_FIELDS = operator.itemgetter("i", "j", "re", "im")


def _json_object(text: str, path, strict: bool = False) -> dict:
    """The JSON object in ``text``. The C scanner converts numbers itself,
    unless ``strict``, when every literal is checked as it is read and the
    first one that is not finite in double precision is refused."""

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            shown = literal if len(literal) <= 40 else literal[:37] + "..."
            raise ParseError(f"{path}: number {shown} is not finite in double precision")
        return value

    def integer(literal: str) -> int:
        finite(literal)
        return int(literal)

    def unique(pairs: list) -> dict:  # a field named twice is an error, not last-wins
        fields = dict(pairs)
        if len(fields) < len(pairs):  # name the first field, in order of first appearance, seen twice
            counts = Counter(key for key, _ in pairs)
            raise ParseError(f"{path}: duplicate field {next(k for k, n in counts.items() if n > 1)!r}")
        return fields

    numbers = {"parse_float": finite, "parse_int": integer} if strict else {}
    try:
        document = json.loads(text, parse_constant=finite, object_pairs_hook=unique, **numbers)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(document, dict):
        raise ParseError(f"{path}: top level must be an object")
    return document


def _read_document(path, build, *args):
    """``build(document, path, *args)`` on the JSON object in a file, and the
    SHA-256 of the file's bytes, which are read once: a pipe cannot be read
    twice.

    The fast parse lets through literals that the strict one refuses as not
    finite in double precision (``1e999``, an int that float() cannot
    convert) and raises a bare ValueError on an int of over 4300 digits. No
    such value reaches a result: it is refused where it is used, and
    anywhere else the document is. So whenever the document is refused, the
    same bytes are parsed strictly, and a literal refused there is reported
    in place of the first refusal.
    """
    try:
        with open(path, "rb") as file:
            data = file.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return build(_json_object(text, path), path, *args), hashlib.sha256(data).hexdigest()
    except (EnthierError, MemoryError, OverflowError, ValueError):
        _json_object(text, path, strict=True)
        raise


def _parse_dims(document: dict, path, expected_rank: int) -> list[int]:
    if "dims" not in document:
        raise ParseError(f"{path}: missing field 'dims'")
    dims = document["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != expected_rank
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise ParseError(f"{path}: 'dims' must be a list of {expected_rank} positive integers")
    return dims


def _entry_fields(entry, position: int, path) -> tuple:
    """(i, j, re, im) of an amplitude entry, im 0.0 when omitted, or a
    ParseError naming the first thing wrong with it."""
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: amplitudes[{position}] must be an object")
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise ParseError(f"{path}: amplitudes[{position}] has unexpected field {sorted(unknown)[0]!r}")
    for key in ("i", "j"):
        if type(entry.get(key)) is not int:
            raise ParseError(f"{path}: amplitudes[{position}].{key} must be an integer")
    if "re" not in entry:
        raise ParseError(f"{path}: amplitudes[{position}].re is required")
    for key in ("re", "im"):
        if key in entry and type(entry[key]) not in _NUMBER_TYPES:
            raise ParseError(f"{path}: amplitudes[{position}].{key} must be a number")
    return entry["i"], entry["j"], entry["re"], entry.get("im", 0.0)


def _amplitude_entries(raw: list, path) -> tuple[tuple, tuple, np.ndarray]:
    """Row and column indices and complex values of the entries, each entry
    checked by exact type in one pass; the first bad one is refused."""
    entries = []
    for position, entry in enumerate(raw):
        try:  # the usual entry, exactly i, j, re and im, is read in one lookup
            i, j, re, im = fields = _ENTRY_FIELDS(entry)
            usual = len(entry) == 4 and type(i) is type(j) is int and type(re) in _NUMBER_TYPES
            usual = usual and type(im) in _NUMBER_TYPES
        except (KeyError, TypeError):  # not an object, or a field missing (im may be)
            usual = False
        entries.append(fields if usual else _entry_fields(entry, position, path))
    rows, cols, reals, imags = zip(*entries)
    values = np.empty(len(rows), dtype=complex)
    values.real, values.imag = reals, imags  # each part as float() converts it, -0.0 kept
    return rows, cols, values


def _state(document: dict, path, renormalize: bool) -> PureState:
    unknown = set(document) - _STATE_KEYS
    if unknown:
        raise ParseError(f"{path}: unexpected field {sorted(unknown)[0]!r}")
    dims = _parse_dims(document, path, expected_rank=2)
    has_amplitudes = "amplitudes" in document
    has_schmidt = "schmidt" in document
    if has_amplitudes == has_schmidt:
        raise ParseError(f"{path}: exactly one of 'amplitudes' or 'schmidt' is required")

    if has_amplitudes:
        raw = document["amplitudes"]
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"{path}: 'amplitudes' must be a non-empty list")
        rows, cols, values = _amplitude_entries(raw, path)
        return from_amplitudes(dims[0], dims[1], zip(rows, cols, values), renormalize)

    raw = document["schmidt"]
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{path}: 'schmidt' must be a non-empty list")
    if not all(type(c) in _NUMBER_TYPES for c in raw):
        raise ParseError(f"{path}: 'schmidt' entries must be numbers")
    if dims != [len(raw), len(raw)]:
        raise ParseError(f"{path}: 'dims' must equal [{len(raw)}, {len(raw)}] for {len(raw)} schmidt coefficients")
    return from_schmidt(raw, renormalize=renormalize)


def parse_state(path, renormalize: bool = False) -> tuple[PureState, str]:
    """Read a state document; see the module docstring for the format.
    Returns the state and the SHA-256 hex digest of the file's bytes.

    Structural problems raise ParseError naming the offending field;
    domain violations (normalization, index range, duplicates) raise
    their own error types.
    """
    return _read_document(path, _state, renormalize)


def _density(document: dict, path) -> np.ndarray:
    unknown = set(document) - _DENSITY_KEYS
    if unknown:
        raise ParseError(f"{path}: unexpected field {sorted(unknown)[0]!r}")
    _parse_dims(document, path, expected_rank=1)
    if document["dims"] != [4]:
        raise ParseError(f"{path}: density 'dims' must be [4]")
    if "matrix" not in document:
        raise ParseError(f"{path}: missing field 'matrix'")
    raw = document["matrix"]
    if not isinstance(raw, list) or len(raw) != 16:
        raise ParseError(f"{path}: 'matrix' must list 16 [re, im] pairs, row-major")
    values = []
    for position, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(type(part) in _NUMBER_TYPES for part in pair):
            raise ParseError(f"{path}: matrix[{position}] must be a [re, im] pair")
        values.append(complex(pair[0], pair[1]))
    rho = np.array(values, dtype=complex).reshape(4, 4)
    if not np.isfinite(rho).all():  # an overflowing literal, refused here so the strict parse names it
        raise InvalidDensity("density contains non-finite entries")
    return rho


def parse_density(path) -> tuple[np.ndarray, str]:
    """Read a two-qubit density document into a 4x4 complex array, with
    the SHA-256 hex digest of the file's bytes."""
    return _read_document(path, _density)


def state_document(state: PureState) -> dict:
    """JSON-ready document for a state, full float precision, sparse."""
    entries = []
    for i in range(state.dim_a):
        for j in range(state.dim_b):
            value = state.amplitudes[i, j]
            # a -0.0 part is kept too, so the file parses back bit-for-bit
            if value != 0 or np.signbit(value.real) or np.signbit(value.imag):
                entries.append({"i": i, "j": j, "re": value.real, "im": value.imag})
    return {"dims": [state.dim_a, state.dim_b], "amplitudes": entries}


def write_state(state: PureState, path) -> None:
    """Write a state document that parses back to identical amplitudes."""
    Path(path).write_text(json.dumps(state_document(state), indent=2) + "\n")


__all__ = [
    "parse_state",
    "parse_density",
    "state_document",
    "write_state",
]
