"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them all.
"""

import json
import math

import numpy as np

from enthier.cli import main
from enthier.linalg import seeded_rng
from enthier.locc import Verdict, hierarchy_dominance, nielsen_verdict
from enthier.measures import (
    af_concurrence,
    eof_pure,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
    invariants,
    ppt_check,
    renyi_entropy,
    Separability,
    TwoQubitDensity,
    wootters_concurrence,
)
from enthier.reference import (
    SPECTRUM_DOMINANT_SOURCE,
    SPECTRUM_MIXED_SOURCE,
    SPECTRUM_MIXED_TARGET,
    bell_embedded,
    diagonal_state,
    solve_unit_eof_x,
    x_family,
)
from enthier.states import from_schmidt, random_pure
from helpers import apply_local_unitary, density_matrix, random_unitary, t_transform_source, wootters_pure


def record(number: int, name: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} failed: {name}"


def test_criterion_01_golden_hierarchy_values():
    ok = True
    for spectrum, (c2, c3) in [
        (SPECTRUM_MIXED_SOURCE, (0.29, 0.020)),
        (SPECTRUM_MIXED_TARGET, (0.28, 0.024)),
        (SPECTRUM_DOMINANT_SOURCE, (0.2925, 0.02475)),
    ]:
        levels = hierarchy(diagonal_state(spectrum))
        ok = ok and abs(levels[1] - c2) <= 1e-12 and abs(levels[2] - c3) <= 1e-12
    ok = ok and abs(hierarchy(x_family(1.0 / 3.0))[2] - 1.0 / 54.0) <= 1e-12
    ok = ok and abs(hierarchy_via_minors(x_family(1.0 / 3.0))[2] - 1.0 / 54.0) <= 1e-12
    ok = ok and hierarchy(bell_embedded())[2] == 0.0
    record(1, "golden hierarchy values", ok)


def test_criterion_02_incomparable_pair_verdicts():
    mixed_source = diagonal_state(SPECTRUM_MIXED_SOURCE)
    mixed_target = diagonal_state(SPECTRUM_MIXED_TARGET)
    dominant_source = diagonal_state(SPECTRUM_DOMINANT_SOURCE)
    dominant_target = diagonal_state(SPECTRUM_MIXED_SOURCE)
    ok = nielsen_verdict(mixed_source, mixed_target).verdict is Verdict.INCOMPARABLE
    ok = ok and nielsen_verdict(dominant_source, dominant_target).verdict is Verdict.INCOMPARABLE
    ok = ok and hierarchy_dominance(mixed_source, mixed_target).mixed
    dominant_report = hierarchy_dominance(dominant_source, dominant_target)
    ok = ok and dominant_report.source_dominates and not dominant_report.mixed
    record(2, "incomparable pair verdicts", ok)


def test_criterion_03_unit_eof_root():
    x_star = solve_unit_eof_x()
    ok = 0.2266 <= x_star <= 0.2276
    ok = ok and abs(eof_pure(x_family(x_star)) - 1.0) <= 1e-6
    ok = ok and abs(eof_pure(bell_embedded()) - 1.0) <= 1e-12
    record(3, "unit entanglement-of-formation root", ok)


def test_criterion_04_concurrence_coincidence():
    bell = bell_embedded()
    third = x_family(1.0 / 3.0)
    ok = abs(af_concurrence(bell) - af_concurrence(third)) <= 1e-12
    gap = hierarchy(third)[2] - hierarchy(bell)[2]
    ok = ok and abs(gap - 1.0 / 54.0) <= 1e-12
    record(4, "two-level coincidence with three-level gap", ok)


def test_criterion_05_triple_path_agreement():
    rng = seeded_rng(20_500)
    failures = 0
    for _ in range(500):
        state = random_pure(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
        eig = hierarchy(state)
        minors = hierarchy_via_minors(state)
        newton = hierarchy_via_invariants(state)
        worst = max(
            np.max(np.abs(eig - minors)),
            np.max(np.abs(eig - newton)),
            np.max(np.abs(minors - newton)),
        )
        if worst > 1e-8:
            failures += 1
    record(5, "triple-path agreement on 500 random states", failures == 0)


def test_criterion_06_local_unitary_invariance():
    rng = seeded_rng(20_600)
    ok = True
    for _ in range(200):
        dim_a = int(rng.integers(2, 6))
        dim_b = int(rng.integers(2, 6))
        state = random_pure(dim_a, dim_b, rng)
        rotated = apply_local_unitary(
            state, random_unitary(dim_a, rng), random_unitary(dim_b, rng)
        )
        ok = ok and np.max(np.abs(hierarchy(rotated) - hierarchy(state))) <= 1e-8
        ok = ok and np.max(np.abs(invariants(rotated) - invariants(state))) <= 1e-8
        for order in (0.5, 1, 2):
            ok = ok and abs(renyi_entropy(rotated, order) - renyi_entropy(state, order)) <= 1e-8
        if not ok:
            break
    record(6, "local-unitary invariance on 200 triples", ok)


def test_criterion_07_hierarchy_monotone_under_locc():
    rng = seeded_rng(20_700)
    violations = 0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        raw = rng.uniform(0.0, 1.0, size=d)
        target_spectrum = np.sort(raw / raw.sum())[::-1]
        source_spectrum = t_transform_source(target_spectrum, int(rng.integers(1, 6)), rng)
        source = from_schmidt(np.sqrt(source_spectrum))
        target = from_schmidt(np.sqrt(target_spectrum))
        if np.any(hierarchy(source) < hierarchy(target) - 1e-12):
            violations += 1
        if eof_pure(source) < eof_pure(target) - 1e-9:
            violations += 1
    record(7, "hierarchy and eof monotone on 500 convertible pairs", violations == 0)


def test_criterion_08_wootters_oracle():
    bell = from_schmidt([math.sqrt(0.5), math.sqrt(0.5)])
    projector = density_matrix(bell)
    identity = np.eye(4) / 4.0
    ok = True
    for p in (0.2, 1.0 / 3.0, 0.5, 0.9):
        rho = p * projector + (1.0 - p) * identity
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        ok = ok and abs(wootters_concurrence(TwoQubitDensity(rho)) - expected) <= 1e-9
    below = 0.2 * projector + 0.8 * identity
    above = 0.5 * projector + 0.5 * identity
    ok = ok and ppt_check(TwoQubitDensity(below)) is Separability.SEPARABLE
    ok = ok and ppt_check(TwoQubitDensity(above)) is Separability.ENTANGLED
    rng = seeded_rng(20_800)
    for _ in range(100):
        state = random_pure(2, 2, rng)
        pure = wootters_pure(state)
        mixed = wootters_concurrence(TwoQubitDensity(density_matrix(state)))
        ok = ok and abs(pure - mixed) <= 1e-9
    record(8, "Werner oracle, PPT flip, pure/mixed consistency", ok)


def test_criterion_09_schmidt_rank_zero_pattern():
    rng = seeded_rng(20_900)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        coefficients = np.zeros(d)
        raw = rng.uniform(0.1, 1.0, size=r)
        coefficients[:r] = raw / np.linalg.norm(raw)
        levels = hierarchy(from_schmidt(coefficients))
        ok = ok and np.all(np.abs(levels[r:]) <= 1e-12)
    record(9, "hierarchy vanishes beyond the Schmidt rank", ok)


def test_criterion_10_reproduction_command(capsys):
    exit_code = main(["paper-examples", "--json"])
    payload = json.loads(capsys.readouterr().out)
    results = payload["results"]
    ok = exit_code == 0

    hier = results["hierarchies"]
    for key, (c2, c3) in [
        ("spectrum_050_040_010", (0.29, 0.020)),
        ("spectrum_060_020_020", (0.28, 0.024)),
        ("spectrum_055_030_015", (0.2925, 0.02475)),
    ]:
        ok = ok and abs(hier[key]["c2"] - c2) <= 1e-12
        ok = ok and abs(hier[key]["c3"] - c3) <= 1e-12

    ok = ok and results["verdicts"]["mixed_pair"]["verdict"] == "incomparable"
    ok = ok and results["verdicts"]["mixed_pair"]["dominance"] == "mixed"
    ok = ok and results["verdicts"]["dominant_pair"]["verdict"] == "incomparable"
    ok = ok and results["verdicts"]["dominant_pair"]["dominance"] == "source-dominates"

    three = results["three_level"]
    ok = ok and three["c3_two_term_uniform"] == 0.0
    ok = ok and abs(three["c3_x_one_third"] - 1.0 / 54.0) <= 1e-12
    ok = ok and abs(three["gap"] - 1.0 / 54.0) <= 1e-12

    coincidence = results["two_level_coincidence"]
    ok = ok and abs(coincidence["af_two_term_uniform"] - coincidence["af_x_one_third"]) <= 1e-12

    root = results["unit_eof_root"]
    ok = ok and 0.2266 <= root["x_star"] <= 0.2276
    ok = ok and abs(root["eof_at_root"] - 1.0) <= 1e-6
    ok = ok and abs(root["eof_two_term_uniform"] - 1.0) <= 1e-12

    record(10, "reproduction command emits every golden value", ok)
