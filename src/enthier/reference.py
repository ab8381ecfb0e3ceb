"""Pinned worked examples with self-checked golden values.

These fixtures back the ``paper-examples`` command: two famous
incomparable pairs of 3x3 Schmidt spectra, the one-parameter diagonal
family that realizes the unit-entropy / equal-concurrence coincidences,
and the root where that family reaches one ebit, found by bisection.
"""

from __future__ import annotations

import math

from .locc import hierarchy_dominance, nielsen_verdict
from .measures import af_concurrence, eof_pure, hierarchies, hierarchy, hierarchy_via_minors
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
    """Root of the unit-entropy equation inside (0, 1/2), near 0.2271, by
    bisection of (0.01, 0.49) down to a bracket at most 1e-10 wide."""
    lo, hi = 0.01, 0.49
    lo_positive = unit_eof_equation(lo) > 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if (unit_eof_equation(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_report() -> tuple[dict, list[str]]:
    """Recompute every pinned value and compare against its golden target.

    Returns the machine-readable results plus the list of failed check
    names (empty when everything lands inside tolerance). Each value is
    checked in the statement that computes it: ``near`` records a number
    against its golden value and tolerance, ``label`` a verdict or
    dominance label against the required one; both return the value.
    The fixture states, all 3x3, are built first, and one ``hierarchies``
    call takes their spectra from one stacked SVD and their levels from one
    e_k pass, as ``scan``'s chunks do, so each later lookup is a cache hit
    with the same bits.
    """
    checks = []

    def near(name, value, expected, tolerance):
        check = {"name": name, "value": value, "expected": expected, "tolerance": tolerance}
        checks.append({**check, "passed": abs(value - expected) <= tolerance})
        return value

    def label(name, value, required, detail):
        checks.append({"name": name, "passed": value == required, "detail": detail})
        return value

    spectra = (SPECTRUM_MIXED_SOURCE, SPECTRUM_MIXED_TARGET, SPECTRUM_DOMINANT_SOURCE, SPECTRUM_DOMINANT_TARGET)
    state = {spectrum: diagonal_state(spectrum) for spectrum in dict.fromkeys(spectra)}
    bell = bell_embedded()
    third = x_family(1.0 / 3.0)
    x_star = solve_unit_eof_x()
    at_root = x_family(x_star)
    # each check below still takes its value from the function it checks
    hierarchies([*state.values(), bell, third, at_root])

    def pair(name, source, target, check, required) -> dict:
        verdict = nielsen_verdict(state[source], state[target]).verdict.value
        dominance = hierarchy_dominance(state[source], state[target])
        side = "source" if dominance.source_dominates else "target"
        found = "mixed" if dominance.mixed else f"{side}-dominates"
        return {
            "verdict": label(f"{name} pair incomparable", verdict, "incomparable", verdict),
            "slacks": list(dominance.slacks),
            "dominance": label(f"{name} pair {check}", found, required, f"slacks {tuple(dominance.slacks)}"),
        }

    hier = {}
    for key, spectrum, c2, c3 in _GOLDEN_LEVELS:
        levels = hierarchy(state[spectrum])
        hier[key] = {
            "c2": near(f"c2 of {spectrum}", float(levels[1]), c2, 1e-12),
            "c3": near(f"c3 of {spectrum}", float(levels[2]), c3, 1e-12),
        }
    verdicts = {
        "mixed_pair": pair("mixed", SPECTRUM_MIXED_SOURCE, SPECTRUM_MIXED_TARGET, "dominance mixed", "mixed"),
        "dominant_pair": pair(
            "dominant", SPECTRUM_DOMINANT_SOURCE, SPECTRUM_DOMINANT_TARGET, "source-dominant", "source-dominates"
        ),
    }
    c3_bell = near("c3 of the two-term uniform state", float(hierarchy_via_minors(bell)[2]), 0.0, 1e-12)
    c3_third = near("c3 of the x=1/3 family member", float(hierarchy_via_minors(third)[2]), 1.0 / 54.0, 1e-12)
    three = {
        "c3_two_term_uniform": c3_bell,
        "c3_x_one_third": c3_third,
        "gap": near("c3 gap at x=1/3", c3_third - c3_bell, 1.0 / 54.0, 1e-12),
    }
    af_bell = af_concurrence(bell)
    af_third = near("two-level concurrence at x=1/3", af_concurrence(third), math.sqrt(0.75), 1e-12)
    near("two-level concurrence coincidence gap", af_third - af_bell, 0.0, 1e-12)
    root = {
        "x_star": near("unit-entropy root", x_star, 0.2271, 5e-4),
        "eof_at_root": near("eof at the root", eof_pure(at_root), 1.0, 1e-6),
        "eof_two_term_uniform": near("eof of the two-term uniform state", eof_pure(bell), 1.0, 1e-12),
    }
    results = {
        "hierarchies": hier,
        "verdicts": verdicts,
        "three_level": three,
        "two_level_coincidence": {"af_two_term_uniform": af_bell, "af_x_one_third": af_third},
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
