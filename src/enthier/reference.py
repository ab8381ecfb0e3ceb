"""Pinned worked examples with self-checked golden values.

These fixtures back the ``paper-examples`` command: two famous
incomparable pairs of 3x3 Schmidt spectra, the one-parameter diagonal
family that realizes the unit-entropy / equal-concurrence coincidences,
and the bisection root where that family reaches one ebit.
"""

from __future__ import annotations

import math

from .linalg import bisect_root
from .locc import hierarchy_dominance, nielsen_verdict
from .measures import af_concurrence, eof_pure, hierarchy, hierarchy_via_minors
from .states import PureState, from_schmidt

#: The incomparable pair whose hierarchies disagree in opposite directions.
SPECTRUM_MIXED_SOURCE = (0.5, 0.4, 0.1)
SPECTRUM_MIXED_TARGET = (0.6, 0.2, 0.2)

#: The incomparable pair where one side dominates every hierarchy level.
SPECTRUM_DOMINANT_SOURCE = (0.55, 0.3, 0.15)
SPECTRUM_DOMINANT_TARGET = (0.5, 0.4, 0.1)

#: Results key, spectrum, and the golden C_2 and C_3 of each pinned spectrum.
_GOLDEN_LEVELS = (
    ("spectrum_050_040_010", SPECTRUM_MIXED_SOURCE, 0.29, 0.020),
    ("spectrum_060_020_020", SPECTRUM_MIXED_TARGET, 0.28, 0.024),
    ("spectrum_055_030_015", SPECTRUM_DOMINANT_SOURCE, 0.2925, 0.02475),
)


def diagonal_state(spectrum) -> PureState:
    """Diagonal state with the given Schmidt spectrum."""
    return from_schmidt([math.sqrt(v) for v in spectrum])


def x_family(x: float) -> PureState:
    """Diagonal 3x3 family with spectrum (x/2, x/2, 1-x), 0 <= x <= 1.

    At x = 1 this is the two-term uniform (Bell-like) state embedded in
    3x3; at x = 2/3 it is maximally entangled.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"family parameter {x!r} outside [0, 1]")
    half = math.sqrt(x / 2.0)
    return from_schmidt([half, half, math.sqrt(1.0 - x)])


def bell_embedded() -> PureState:
    """Two-term uniform state in 3x3: spectrum (1/2, 1/2, 0)."""
    return x_family(1.0)


def unit_eof_equation(x: float) -> float:
    """x^x [2(1-x)]^(1-x) - 1: zero where the x-family entropy is one ebit."""
    return x**x * (2.0 * (1.0 - x)) ** (1.0 - x) - 1.0


def solve_unit_eof_x() -> float:
    """Root of the unit-entropy equation inside (0, 1/2), near 0.2271."""
    return bisect_root(unit_eof_equation, 0.01, 0.49)


def build_report() -> tuple[dict, list[str]]:
    """Recompute every pinned value and compare against its golden target.

    Returns the machine-readable results plus the list of failed check
    names (empty when everything lands inside tolerance). Each value is
    computed once, into the results; the golden table then reads it back.
    Its rows are (name, value, expected, tolerance) for numbers and
    (name, label, required label, detail) for verdict and dominance labels.
    """
    spectra = (SPECTRUM_MIXED_SOURCE, SPECTRUM_MIXED_TARGET, SPECTRUM_DOMINANT_SOURCE, SPECTRUM_DOMINANT_TARGET)
    state = {spectrum: diagonal_state(spectrum) for spectrum in spectra}

    def pair(source, target) -> dict:
        verdict = nielsen_verdict(state[source], state[target])
        dominance = hierarchy_dominance(state[source], state[target])
        if dominance.mixed:
            label = "mixed"
        else:
            label = "source-dominates" if dominance.source_dominates else "target-dominates"
        return {"verdict": verdict.verdict.value, "slacks": list(dominance.slacks), "dominance": label}

    hier = {}
    for key, spectrum, _, _ in _GOLDEN_LEVELS:
        levels = hierarchy(state[spectrum])
        hier[key] = {"c2": float(levels[1]), "c3": float(levels[2])}
    mixed = pair(SPECTRUM_MIXED_SOURCE, SPECTRUM_MIXED_TARGET)
    dominant = pair(SPECTRUM_DOMINANT_SOURCE, SPECTRUM_DOMINANT_TARGET)
    bell = bell_embedded()
    third = x_family(1.0 / 3.0)
    c3_bell = float(hierarchy_via_minors(bell)[2])
    c3_third = float(hierarchy_via_minors(third)[2])
    three = {"c3_two_term_uniform": c3_bell, "c3_x_one_third": c3_third, "gap": c3_third - c3_bell}
    two = {"af_two_term_uniform": af_concurrence(bell), "af_x_one_third": af_concurrence(third)}
    x_star = solve_unit_eof_x()
    root = {"x_star": x_star, "eof_at_root": eof_pure(x_family(x_star)), "eof_two_term_uniform": eof_pure(bell)}

    golden = [
        (f"c{k} of {spectrum}", hier[key][f"c{k}"], expected, 1e-12)
        for key, spectrum, c2, c3 in _GOLDEN_LEVELS
        for k, expected in ((2, c2), (3, c3))
    ] + [
        ("mixed pair incomparable", mixed["verdict"], "incomparable", mixed["verdict"]),
        ("mixed pair dominance mixed", mixed["dominance"], "mixed", f"slacks {tuple(mixed['slacks'])}"),
        ("dominant pair incomparable", dominant["verdict"], "incomparable", dominant["verdict"]),
        (
            "dominant pair source-dominant",
            dominant["dominance"],
            "source-dominates",
            f"slacks {tuple(dominant['slacks'])}",
        ),
        ("c3 of the two-term uniform state", three["c3_two_term_uniform"], 0.0, 1e-12),
        ("c3 of the x=1/3 family member", three["c3_x_one_third"], 1.0 / 54.0, 1e-12),
        ("c3 gap at x=1/3", three["gap"], 1.0 / 54.0, 1e-12),
        ("two-level concurrence at x=1/3", two["af_x_one_third"], math.sqrt(0.75), 1e-12),
        ("two-level concurrence coincidence gap", two["af_x_one_third"] - two["af_two_term_uniform"], 0.0, 1e-12),
        ("unit-entropy root", root["x_star"], 0.2271, 5e-4),
        ("eof at the root", root["eof_at_root"], 1.0, 1e-6),
        ("eof of the two-term uniform state", root["eof_two_term_uniform"], 1.0, 1e-12),
    ]
    checks = []
    for name, value, expected, bound in golden:
        if isinstance(expected, str):
            checks.append({"name": name, "passed": value == expected, "detail": bound})
        else:
            passed = abs(value - expected) <= bound
            checks.append(
                {"name": name, "value": value, "expected": expected, "tolerance": bound, "passed": passed}
            )
    results = {
        "hierarchies": hier,
        "verdicts": {"mixed_pair": mixed, "dominant_pair": dominant},
        "three_level": three,
        "two_level_coincidence": two,
        "unit_eof_root": root,
        "checks": checks,
    }
    return results, [check["name"] for check in checks if not check["passed"]]


__all__ = [
    "SPECTRUM_MIXED_SOURCE",
    "SPECTRUM_MIXED_TARGET",
    "SPECTRUM_DOMINANT_SOURCE",
    "SPECTRUM_DOMINANT_TARGET",
    "diagonal_state",
    "x_family",
    "bell_embedded",
    "unit_eof_equation",
    "solve_unit_eof_x",
    "build_report",
]
