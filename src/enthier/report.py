"""Structured command output: full-precision JSON or a compact table."""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

_FLOAT_ONLY = {float}


def _fmt_scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _render_check(item: dict) -> str:
    mark = "PASS" if item.get("passed") else "FAIL"
    name = item.get("name", "?")
    if "value" in item:
        return (
            f"[{mark}] {name}: value={_fmt_scalar(item['value'])}"
            f" expected={_fmt_scalar(item['expected'])} tol={item['tolerance']:.0e}"
        )
    return f"[{mark}] {name} ({item.get('detail', '')})"


def _render_lines(data: dict, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_lines(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            lines.extend(pad + "  " + _render_check(item) for item in value)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + "  ".join(_fmt_scalar(v) for v in value))
        else:
            lines.append(f"{pad}{key}: {_fmt_scalar(value)}")
    return lines


def _json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes it,
    continued at indent ``pad``.

    With an indent, json.dumps runs its pure-Python encoder, one generator
    step per value. This writer joins each container's items once, and a
    list of Python floats, most of a report, in one C-level join. Keys must
    be str: the escaper raises TypeError for any other, where json.dumps
    would convert int, float, bool and None keys.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = separator.join([f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == _FLOAT_ONLY and all(map(math.isfinite, value)):
            body = separator.join(map(float.__repr__, value))
        else:  # item by item, which refuses an inf or nan as json.dumps does
            body = separator.join([_json(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class ReportDocument:
    """Results of one command plus provenance (digests, version, seed)."""

    command: str
    results: dict
    provenance: dict

    def to_json(self) -> str:
        """The report as ``json.dumps(payload, indent=2, allow_nan=False)``
        writes it, byte for byte, from a private writer that joins float
        lists in C; a non-finite float raises ValueError."""
        payload = {"command": self.command, "results": self.results, "provenance": self.provenance}
        return _json(payload, "")

    def render(self) -> str:
        lines = [f"enthier {self.command}"]
        lines.extend(_render_lines(self.results, 0))
        lines.append("provenance:")
        lines.extend(_render_lines(self.provenance, 1))
        return "\n".join(lines)


__all__ = ["ReportDocument"]
