"""Structured command output: full-precision JSON or a compact table."""

from __future__ import annotations

import json
from dataclasses import dataclass


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


@dataclass
class ReportDocument:
    """Results of one command plus provenance (digests, version, seed)."""

    command: str
    results: dict
    provenance: dict

    def to_json(self) -> str:
        payload = {"command": self.command, "results": self.results, "provenance": self.provenance}
        return json.dumps(payload, indent=2, allow_nan=False)

    def render(self) -> str:
        lines = [f"enthier {self.command}"]
        lines.extend(_render_lines(self.results, 0))
        lines.append("provenance:")
        lines.extend(_render_lines(self.provenance, 1))
        return "\n".join(lines)


__all__ = ["ReportDocument"]
