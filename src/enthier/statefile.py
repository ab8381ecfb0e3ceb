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
from pathlib import Path

import numpy as np

from .errors import ParseError
from .states import PureState, from_amplitudes, from_schmidt

_STATE_KEYS = {"dims", "amplitudes", "schmidt"}
_ENTRY_KEYS = {"i", "j", "re", "im"}
_DENSITY_KEYS = {"dims", "matrix"}


def _is_number(value) -> bool:
    """A JSON number; true and false are not, although bool subclasses int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_document(path) -> tuple[dict, str]:
    """The JSON object in a UTF-8 file, read once, and the SHA-256 of its bytes."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

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
        if len(fields) < len(pairs):
            keys = [key for key, _ in pairs]
            raise ParseError(f"{path}: duplicate field {next(k for k in keys if keys.count(k) > 1)!r}")
        return fields

    try:
        document = json.loads(
            text, parse_float=finite, parse_int=integer, parse_constant=finite, object_pairs_hook=unique
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(document, dict):
        raise ParseError(f"{path}: top level must be an object")
    return document, hashlib.sha256(data).hexdigest()


def _parse_dims(document: dict, path, expected_rank: int) -> list[int]:
    if "dims" not in document:
        raise ParseError(f"{path}: missing field 'dims'")
    dims = document["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != expected_rank
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise ParseError(f"{path}: 'dims' must be a list of {expected_rank} positive integers")
    return dims


def _parse_entry(entry, position: int, path) -> tuple[int, int, complex]:
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: amplitudes[{position}] must be an object")
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise ParseError(f"{path}: amplitudes[{position}] has unexpected field {sorted(unknown)[0]!r}")
    for key in ("i", "j"):
        if key not in entry or isinstance(entry[key], bool) or not isinstance(entry[key], int):
            raise ParseError(f"{path}: amplitudes[{position}].{key} must be an integer")
    if "re" not in entry:
        raise ParseError(f"{path}: amplitudes[{position}].re is required")
    for key in ("re", "im"):
        if key in entry and not _is_number(entry[key]):
            raise ParseError(f"{path}: amplitudes[{position}].{key} must be a number")
    return entry["i"], entry["j"], complex(entry["re"], entry.get("im", 0.0))


def parse_state(path, renormalize: bool = False) -> tuple[PureState, str]:
    """Read a state document; see the module docstring for the format.
    Returns the state and the SHA-256 hex digest of the file's bytes.

    Structural problems raise ParseError naming the offending field;
    domain violations (normalization, index range, duplicates) raise
    their own error types.
    """
    document, digest = _load_document(path)
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
        entries = [_parse_entry(entry, pos, path) for pos, entry in enumerate(raw)]
        return from_amplitudes(dims[0], dims[1], entries, renormalize=renormalize), digest

    raw = document["schmidt"]
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{path}: 'schmidt' must be a non-empty list")
    if not all(_is_number(c) for c in raw):
        raise ParseError(f"{path}: 'schmidt' entries must be numbers")
    if dims != [len(raw), len(raw)]:
        raise ParseError(f"{path}: 'dims' must equal [{len(raw)}, {len(raw)}] for {len(raw)} schmidt coefficients")
    return from_schmidt(raw, renormalize=renormalize), digest


def parse_density(path) -> tuple[np.ndarray, str]:
    """Read a two-qubit density document into a 4x4 complex array, with
    the SHA-256 hex digest of the file's bytes."""
    document, digest = _load_document(path)
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
        if not isinstance(pair, list) or len(pair) != 2 or not all(_is_number(part) for part in pair):
            raise ParseError(f"{path}: matrix[{position}] must be a [re, im] pair")
        values.append(complex(pair[0], pair[1]))
    return np.array(values, dtype=complex).reshape(4, 4), digest


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
