import math

import numpy as np
import pytest

from enthier.linalg import seeded_rng
from enthier.locc import (
    COMPARABLE,
    INCOMPARABLE_FULL,
    INCOMPARABLE_MIXED,
    Verdict,
    conversion_class,
    hierarchy_dominance,
    nielsen_verdict,
)
from enthier.measures import eof_pure, hierarchy
from enthier.reference import diagonal_state
from enthier.states import PureState, from_amplitudes, from_schmidt, random_pure
from helpers import t_transform_source


def random_spectrum(d, rng):
    raw = rng.uniform(0.0, 1.0, size=d)
    raw /= raw.sum()
    return np.sort(raw)[::-1]


# ------------------------------------------------------------ majorization


def test_uniform_is_majorized_by_everything():
    rng = seeded_rng(401)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        uniform = diagonal_state(np.full(d, 1.0 / d))
        target = diagonal_state(random_spectrum(d, rng))
        assert nielsen_verdict(uniform, target).verdict in (Verdict.FORWARD_ONLY, Verdict.EQUIVALENT)


def test_golden_pair_incomparable_both_ways():
    x = diagonal_state([0.5, 0.4, 0.1])
    y = diagonal_state([0.6, 0.2, 0.2])
    # prefix 2: 0.9 > 0.8 blocks x -> y; prefix 1: 0.6 > 0.5 blocks y -> x
    assert nielsen_verdict(x, y).verdict is Verdict.INCOMPARABLE
    assert nielsen_verdict(y, x).verdict is Verdict.INCOMPARABLE
    assert nielsen_verdict(x, x).verdict is Verdict.EQUIVALENT
    assert nielsen_verdict(y, y).verdict is Verdict.EQUIVALENT


def test_majorizes_pads_shorter_input():
    # [0.5, 0.5] is majorized by [1, 0, 0]; [1] is not majorized by [0.5, 0.5]
    bell = diagonal_state([0.5, 0.5])
    product3 = diagonal_state([1.0, 0.0, 0.0])
    product1 = diagonal_state([1.0])
    forward = (Verdict.FORWARD_ONLY, Verdict.EQUIVALENT)
    assert nielsen_verdict(bell, product3).verdict in forward
    assert nielsen_verdict(product1, bell).verdict not in forward


def test_nielsen_reflexive_transitive_on_t_transform_chains():
    rng = seeded_rng(402)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        top = random_spectrum(d, rng)
        mid = t_transform_source(top, 3, rng)
        bottom = t_transform_source(mid, 3, rng)
        top, mid, bottom = (diagonal_state(spectrum) for spectrum in (top, mid, bottom))
        forward = (Verdict.FORWARD_ONLY, Verdict.EQUIVALENT)
        assert nielsen_verdict(top, top).verdict is Verdict.EQUIVALENT
        assert nielsen_verdict(mid, top).verdict in forward
        assert nielsen_verdict(bottom, mid).verdict in forward
        assert nielsen_verdict(bottom, top).verdict in forward


# -------------------------------------------------------------- verdicts


def test_nielsen_incomparable_mixed_pair():
    report = nielsen_verdict(diagonal_state([0.5, 0.4, 0.1]), diagonal_state([0.6, 0.2, 0.2]))
    assert report.verdict is Verdict.INCOMPARABLE
    assert np.allclose(report.source_prefix_sums, [0.5, 0.9, 1.0], atol=1e-12)
    assert np.allclose(report.target_prefix_sums, [0.6, 0.8, 1.0], atol=1e-12)


def test_nielsen_incomparable_dominant_pair():
    report = nielsen_verdict(diagonal_state([0.55, 0.3, 0.15]), diagonal_state([0.5, 0.4, 0.1]))
    assert report.verdict is Verdict.INCOMPARABLE


def test_nielsen_forward_only_bell_to_product():
    bell = from_amplitudes(2, 2, [(0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.5))])
    product = from_amplitudes(2, 2, [(0, 0, 1.0)])
    assert nielsen_verdict(bell, product).verdict is Verdict.FORWARD_ONLY
    assert nielsen_verdict(product, bell).verdict is Verdict.BACKWARD_ONLY


def test_nielsen_equivalent_on_equal_spectra():
    a = diagonal_state([0.7, 0.2, 0.1])
    b = diagonal_state([0.7, 0.2, 0.1])
    assert nielsen_verdict(a, b).verdict is Verdict.EQUIVALENT


def test_nielsen_pads_across_dimensions():
    bell = from_amplitudes(2, 2, [(0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.5))])
    product3 = from_amplitudes(3, 3, [(2, 2, 1.0)])
    report = nielsen_verdict(bell, product3)
    assert report.verdict is Verdict.FORWARD_ONLY
    assert len(report.source_prefix_sums) == 3


# ------------------------------------------------------------- dominance


def test_dominance_mixed_pair_slacks():
    report = hierarchy_dominance(diagonal_state([0.5, 0.4, 0.1]), diagonal_state([0.6, 0.2, 0.2]))
    assert np.allclose(report.slacks, [0.0, 0.01, -0.004], atol=1e-12)
    assert not report.source_dominates
    assert not report.target_dominates
    assert report.mixed


def test_dominance_without_convertibility_regression():
    # pinned counterexample: full one-sided dominance yet Nielsen-incomparable
    source = diagonal_state([0.55, 0.3, 0.15])
    target = diagonal_state([0.5, 0.4, 0.1])
    report = hierarchy_dominance(source, target)
    assert np.allclose(report.slacks, [0.0, 0.0025, 0.00475], atol=1e-12)
    assert report.source_dominates and not report.target_dominates
    assert not report.mixed
    assert nielsen_verdict(source, target).verdict is Verdict.INCOMPARABLE


def test_dominance_self_comparison():
    state = diagonal_state([0.5, 0.3, 0.2])
    report = hierarchy_dominance(state, state)
    assert np.array_equal(report.slacks, np.zeros(3))
    assert report.source_dominates and report.target_dominates and not report.mixed


# ------------------------------------------------------------ t-transform


def test_t_transform_two_level_extreme():
    rng = seeded_rng(403)
    for _ in range(20):
        result = t_transform_source([1.0, 0.0], 1, rng)
        assert 0.5 <= result[0] <= 1.0
        assert abs(result.sum() - 1.0) <= 1e-12
        # independent prefix-sum check against the target [1.0, 0.0]
        prefix_result = np.cumsum(np.sort(result)[::-1])
        assert np.all(prefix_result <= np.cumsum([1.0, 0.0]) + 1e-12)


def test_t_transform_single_entry_unchanged():
    result = t_transform_source([1.0], 5, seeded_rng(404))
    assert np.array_equal(result, [1.0])


def test_t_transform_rejects_zero_steps():
    with pytest.raises(ValueError):
        t_transform_source([0.5, 0.5], 0, seeded_rng(405))


def test_t_transform_always_majorized_prefix_oracle():
    rng = seeded_rng(406)
    for _ in range(500):
        d = int(rng.integers(2, 7))
        target = random_spectrum(d, rng)
        result = t_transform_source(target, int(rng.integers(1, 6)), rng)
        # independent prefix-sum check, not via nielsen_verdict()
        prefix_result = np.cumsum(np.sort(result)[::-1])
        prefix_target = np.cumsum(target)
        assert abs(prefix_result[-1] - prefix_target[-1]) <= 1e-12
        assert np.all(prefix_result <= prefix_target + 1e-12)


def test_t_transform_pairs_are_hierarchy_monotone():
    rng = seeded_rng(407)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        target = random_spectrum(d, rng)
        source = t_transform_source(target, int(rng.integers(1, 6)), rng)
        c_source = hierarchy(from_schmidt(np.sqrt(source)))
        c_target = hierarchy(from_schmidt(np.sqrt(target)))
        assert np.all(c_source >= c_target - 1e-12)


def test_procrustean_measurement_raises_the_average_c3():
    # The hierarchy never rises along a deterministic LOCC conversion
    # (Nielsen), but the raw C_3 can rise on average over the outcomes of a
    # local measurement. Alice's Procrustean filter (Bennett, Bernstein,
    # Popescu and Schumacher, PRA 53, 2046, 1996) on lambda = (a, b, b) with
    # M_1 = diag(sqrt(q), 1, 1), M_2 = diag(sqrt(1 - q), 0, 0): outcome 1 has
    # p = q a + 2 b, average C_2 = (2 q a b + b^2) / p and average
    # C_3 = q a b^2 / p^2; outcome 2 is a product state.
    a, b, q = 0.98, 0.01, 0.02
    state = from_schmidt(np.sqrt([a, b, b]))
    kraus = [np.diag(np.sqrt([q, 1.0, 1.0])), np.diag(np.sqrt([1.0 - q, 0.0, 0.0]))]
    assert np.allclose(sum(m.conj().T @ m for m in kraus), np.eye(3), rtol=0.0, atol=1e-15)
    weights, outcomes = [], []
    for m in kraus:
        branch = m @ state.amplitudes
        weight = float(np.linalg.norm(branch) ** 2)
        weights.append(weight)
        outcomes.append(hierarchy(PureState(branch / math.sqrt(weight))))
    before = hierarchy(state)
    average = sum(w * levels for w, levels in zip(weights, outcomes))
    p = q * a + 2 * b
    assert weights[0] == pytest.approx(p, rel=1e-12) and p == pytest.approx(0.0396, rel=1e-12)
    assert before == pytest.approx([1.0, 0.0197, 9.8e-5], rel=1e-12)
    assert list(outcomes[1]) == pytest.approx([1.0, 0.0, 0.0], rel=0.0, abs=1e-15)
    # the raw C_3 rises 12.75-fold
    assert average[2] == pytest.approx(q * a * b * b / p**2, rel=1e-12)
    assert average[2] == pytest.approx(1.2499e-3, rel=1e-4)
    assert average[2] / before[2] == pytest.approx(12.75, rel=1e-3)
    # C_2 and every C_k^(1/k), k >= 2, fall; C_1 = 1 on every outcome
    assert average[1] == pytest.approx((2 * q * a * b + b * b) / p, rel=1e-12)
    assert average[1] == pytest.approx(0.01242, rel=1e-3)
    roots = 1.0 / np.arange(1, 4)
    average_roots = sum(w * levels**roots for w, levels in zip(weights, outcomes))
    assert average_roots[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(average_roots[1:] < before[1:] ** roots[1:])


def test_convertible_pairs_are_eof_monotone():
    rng = seeded_rng(408)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        target = random_spectrum(d, rng)
        source = t_transform_source(target, int(rng.integers(1, 6)), rng)
        source_state = from_schmidt(np.sqrt(source))
        target_state = from_schmidt(np.sqrt(target))
        assert nielsen_verdict(source_state, target_state).verdict in (
            Verdict.FORWARD_ONLY,
            Verdict.EQUIVALENT,
        )
        assert eof_pure(source_state) >= eof_pure(target_state) - 1e-9


def test_forward_verdict_implies_source_dominance():
    rng = seeded_rng(409)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        target = random_spectrum(d, rng)
        source = t_transform_source(target, int(rng.integers(1, 6)), rng)
        source_state = from_schmidt(np.sqrt(source))
        target_state = from_schmidt(np.sqrt(target))
        if nielsen_verdict(source_state, target_state).verdict is Verdict.FORWARD_ONLY:
            assert hierarchy_dominance(source_state, target_state).source_dominates


# ---------------------------------------------------------- classification


def test_conversion_classes_on_pinned_pairs():
    mixed_source = diagonal_state([0.5, 0.4, 0.1])
    mixed_target = diagonal_state([0.6, 0.2, 0.2])
    dominant_source = diagonal_state([0.55, 0.3, 0.15])
    assert conversion_class(mixed_source, mixed_target) == INCOMPARABLE_MIXED
    assert conversion_class(dominant_source, mixed_source) == INCOMPARABLE_FULL
    assert conversion_class(mixed_source, mixed_source) == COMPARABLE


def test_two_level_pairs_always_comparable():
    rng = seeded_rng(410)
    for _ in range(100):
        first = random_pure(2, 2, rng)
        second = random_pure(2, 2, rng)
        assert conversion_class(first, second) == COMPARABLE
