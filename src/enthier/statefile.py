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

from .errors import EnthierError, ParseError
from .measures import TwoQubitDensity
from .states import PureState, from_amplitudes, from_schmidt

_STATE_KEYS = {"dims", "amplitudes", "schmidt"}
_ENTRY_KEYS = {"i", "j", "re", "im"}
_DENSITY_KEYS = {"dims", "matrix"}
# JSON numbers by exact type: true and false are not numbers, although bool subclasses int
_NUMBER_TYPES = (int, float)
_ENTRY_FIELDS = operator.itemgetter("i", "j", "re", "im")
_last_built: tuple = (None, None)  # ((build, args, SHA-256 of the bytes), object) of the last success


def _json_object(text: str, path, strict: bool = False) -> dict:
    """The JSON object in ``text``, refusing a field named twice, in one of
    two parses. The fast one has the C scanner alone build every object and
    convert every number, with no Python call per object, and so would keep
    the last value of a field named twice. Every field name in the text is a
    string between two of its quotes, so when the text holds exactly two
    quotes per field of the objects ``_field_count`` counts, no object
    anywhere names a field twice: a repeat, a field of any other object and
    any string value each add quotes the count does not hold. Otherwise, or
    when ``strict``, the text is parsed strictly: a hook refuses a repeated
    field, and every literal is checked as it is read, the first one that is
    not finite in double precision refused.
    """

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

    def load(**hooks) -> dict:
        try:
            document = json.loads(text, parse_constant=finite, **hooks)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise ParseError(f"{path}: JSON nested too deeply") from exc
        if not isinstance(document, dict):
            raise ParseError(f"{path}: top level must be an object")
        return document

    if not strict:
        document = load()
        if text.count('"') == 2 * _field_count(document):
            return document
    return load(object_pairs_hook=unique, parse_float=finite, parse_int=integer)


def _field_count(document: dict) -> int:
    """Fields of the top-level object and of the objects in its
    ``amplitudes`` list, the only objects a valid document holds."""
    entries = document.get("amplitudes")
    inner = sum(len(entry) for entry in entries if type(entry) is dict) if type(entries) is list else 0
    return len(document) + inner


def _read_document(path, build, *args):
    """``build(document, path, *args)`` on the JSON object in a file, and the
    SHA-256 of the file's bytes, which are read once: a pipe cannot be read
    twice. ``_json_object`` refuses a field named twice before ``build``
    sees the document. The bytes, ``build`` and ``args`` of the last document
    built give back its immutable object, memos and all, unparsed; every
    call still reads and hashes the file, so changed bytes are built afresh.

    The fast parse lets through literals that the strict one refuses as not
    finite in double precision (``1e999``, an int that float() cannot
    convert) and raises a bare ValueError on an int of over 4300 digits. No
    such value reaches a result: it is refused where it is used, and
    anywhere else the document is. So whenever the document is refused, the
    same bytes are parsed strictly, and a literal refused there is reported
    in place of the first refusal.
    """
    global _last_built
    try:
        with open(path, "rb") as file:
            data = file.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    key = (build, args, hashlib.sha256(data).hexdigest())
    last_key, built = _last_built  # one read, so another thread's entry is never returned
    if key != last_key:
        try:
            built = build(_json_object(text, path), path, *args)
        except (EnthierError, MemoryError, OverflowError, ValueError):
            _json_object(text, path, strict=True)
            raise
        _last_built = key, built
    return built, key[2]


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
    """The (i, j, amplitude) triple of an entry, im 0.0 when omitted, or a
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
    return entry["i"], entry["j"], complex(entry["re"], entry.get("im", 0.0))


def _amplitude_entries(raw: list, path) -> list[tuple[int, int, complex]]:
    """The entries as a list of (i, j, amplitude) triples, each checked by
    exact type in one pass, all before any index; the first bad one is refused."""
    entries = []
    for position, entry in enumerate(raw):
        try:  # the usual entry, exactly i, j, re and im, is read in one lookup
            i, j, re, im = _ENTRY_FIELDS(entry)
            usual = len(entry) == 4 and type(i) is type(j) is int and type(re) in _NUMBER_TYPES
            usual = usual and type(im) in _NUMBER_TYPES
        except (KeyError, TypeError):  # not an object, or a field missing (im may be)
            usual = False
        # complex() converts each part as float() does: -0.0 is kept, a huge int raises OverflowError
        entries.append((i, j, complex(re, im)) if usual else _entry_fields(entry, position, path))
    return entries


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
        return from_amplitudes(dims[0], dims[1], _amplitude_entries(raw, path), renormalize)

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
    Returns the state and the SHA-256 hex digest of the file's bytes; the
    bytes and ``renormalize`` of the last document built give back its state.

    Structural problems raise ParseError naming the offending field;
    domain violations (normalization, index range, duplicates) raise
    their own error types.
    """
    return _read_document(path, _state, renormalize)


def _density(document: dict, path) -> TwoQubitDensity:
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
    return TwoQubitDensity(np.array(values, dtype=complex).reshape(4, 4))


def parse_density(path) -> tuple[TwoQubitDensity, str]:
    """Read a two-qubit density document into a ``TwoQubitDensity``, with the
    SHA-256 hex digest of the file's bytes. The density is checked as the
    document is read, so an overflowing literal is named, not its inf. The
    bytes of the last document built give back its density, lambdas memoized."""
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
