"""Property tests for the invariants the paper relies on."""

import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enthier.linalg import elementary_symmetric, random_unitary, seeded_rng
from enthier.locc import Verdict, conversion_class, hierarchy_dominance, nielsen_verdict, t_transform_source
from enthier.measures import (
    NEWTON_DIM_LIMIT,
    af_concurrence,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
    invariants,
    rungta_concurrence,
    wootters_concurrence,
    wootters_pure,
)
from enthier.reference import diagonal_state
from enthier.statefile import parse_state, write_state
from enthier.states import PureState, apply_local_unitary, density_matrix, random_pure

ROUTE_TOL = 1e-8  # the triple-path agreement tolerance of the acceptance tests
HAAR_LEVEL_RTOL = 1e-10  # worst seen over 600 Haar draws with d <= 8: 2.3e-14
WOOTTERS_TOL = 1e-12
EPS = np.finfo(float).eps

dims = st.integers(min_value=1, max_value=NEWTON_DIM_LIMIT)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
derandomized = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def rotated(state, rng):
    return apply_local_unitary(state, random_unitary(state.dim_a, rng), random_unitary(state.dim_b, rng))


def zero_padded(state, rows, cols):
    a = np.zeros((state.dim_a + rows, state.dim_b + cols), dtype=complex)
    a[: state.dim_a, : state.dim_b] = state.amplitudes
    return PureState(a)


@derandomized
@given(dim_a=dims, dim_b=dims, seed=seeds)
def test_routes_agree_and_are_local_unitary_invariant(dim_a, dim_b, seed):
    # Per level and relative for the spectral and minor routes: at d = 8 the
    # median Haar C_d is ~4e-11, which an absolute bound cannot see.
    rng = seeded_rng(seed)
    state = random_pure(dim_a, dim_b, rng)
    turned = rotated(state, rng)
    eig = hierarchy(state)
    for levels in (hierarchy(turned), hierarchy_via_minors(state), hierarchy_via_minors(turned)):
        assert np.all(np.abs(levels - eig) <= HAAR_LEVEL_RTOL * eig)
    for levels in (hierarchy_via_invariants(state), hierarchy_via_invariants(turned)):
        assert np.max(np.abs(levels - eig)) <= ROUTE_TOL


@derandomized
@given(dim_a=st.integers(min_value=1, max_value=13), dim_b=st.integers(min_value=1, max_value=14), seed=seeds)
def test_routes_agree_per_level_on_rectangular_states_up_to_13x14(dim_a, dim_b, seed):
    state = random_pure(dim_a, dim_b, seeded_rng(seed))
    eig = hierarchy(state)
    assert np.all(np.abs(hierarchy_via_minors(state) - eig) <= HAAR_LEVEL_RTOL * eig)


@derandomized
@given(
    shape=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=2),
    padding=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    seed=seeds,
)
def test_routes_agree_on_zero_padded_rank_deficient_states(shape, padding, seed):
    # Exact zero rows and columns send the minor route's reflector through
    # its zero-norm branch; the levels beyond the rank must stay exactly 0.
    state = zero_padded(random_pure(*shape, seeded_rng(seed)), *padding)
    rank = min(shape)
    eig, minors = hierarchy(state), hierarchy_via_minors(state)
    assert np.all(np.abs(minors[:rank] - eig[:rank]) <= HAAR_LEVEL_RTOL * eig[:rank])
    assert np.array_equal(minors[rank:], np.zeros(minors.size - rank))


@derandomized
@given(
    d=st.integers(min_value=2, max_value=12),
    values=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=3),
    seed=seeds,
)
def test_routes_agree_per_level_on_degenerate_spectra(d, values, seed):
    # Repeated Schmidt coefficients, each value taken by several lambda_i.
    rng = seeded_rng(seed)
    spectrum = np.sort(rng.choice(values, d))[::-1]
    state = rotated(diagonal_state(spectrum / math.fsum(spectrum)), rng)
    eig = hierarchy(state)
    assert np.all(np.abs(hierarchy_via_minors(state) - eig) <= HAAR_LEVEL_RTOL * eig)


NEWTON_ABS_TOL = 1e-12  # worst seen over 400 such draws: 4.4e-16


def newton_state(kind, shape, padding, values, rng):
    if kind == "rectangular":
        return random_pure(*shape, rng)
    if kind == "zero-padded":  # at most 6 rows, so d <= 6
        return zero_padded(random_pure(*shape, rng), min(padding[0], 6 - shape[0]), padding[1])
    spectrum = np.sort(rng.choice(values, min(shape)))[::-1]  # degenerate, rotated
    return rotated(diagonal_state(spectrum / math.fsum(spectrum)), rng)


@derandomized
@given(
    kind=st.sampled_from(["rectangular", "zero-padded", "degenerate"]),
    shape=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=2),
    padding=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    values=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=3),
    seed=seeds,
)
def test_newton_route_agrees_with_the_spectral_route_beyond_haar(kind, shape, padding, values, seed):
    # The power sums measure prints as invariants are the Newton route's
    # input, on rectangular, rank-deficient and degenerate states too.
    state = newton_state(kind, shape, padding, values, seeded_rng(seed))
    assert min(state.dim_a, state.dim_b) <= NEWTON_DIM_LIMIT
    newton, eig = hierarchy_via_invariants(state), hierarchy(state)
    assert np.max(np.abs(newton - eig)) <= NEWTON_ABS_TOL
    assert np.array_equal(newton, hierarchy_via_invariants(state, invariants(state)))


SWAPPED = {
    Verdict.FORWARD_ONLY: Verdict.BACKWARD_ONLY,
    Verdict.BACKWARD_ONLY: Verdict.FORWARD_ONLY,
    Verdict.EQUIVALENT: Verdict.EQUIVALENT,
    Verdict.INCOMPARABLE: Verdict.INCOMPARABLE,
}


@derandomized
@given(shape=st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=4), twin=st.booleans(), seed=seeds)
def test_nielsen_verdict_and_dominance_are_antisymmetric(shape, twin, seed):
    rng = seeded_rng(seed)
    source = random_pure(shape[0], shape[1], rng)
    target = source if twin else random_pure(shape[2], shape[3], rng)
    assert nielsen_verdict(target, source).verdict is SWAPPED[nielsen_verdict(source, target).verdict]
    forward = hierarchy_dominance(source, target)
    backward = hierarchy_dominance(target, source)
    assert backward.slacks == tuple(-slack for slack in forward.slacks)
    assert (backward.source_dominates, backward.target_dominates) == (
        forward.target_dominates,
        forward.source_dominates,
    )


@derandomized
@given(
    shape=st.lists(st.integers(min_value=1, max_value=6), min_size=4, max_size=4),
    padding=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    twin=st.booleans(),
    seed=seeds,
)
def test_nielsen_verdict_and_class_survive_local_unitaries_and_zero_padding(shape, padding, twin, seed):
    rng = seeded_rng(seed)
    source = random_pure(shape[0], shape[1], rng)
    target = source if twin else random_pure(shape[2], shape[3], rng)
    expected = (nielsen_verdict(source, target).verdict, conversion_class(source, target))
    variants = [
        (rotated(source, rng), target),
        (source, rotated(target, rng)),
        (zero_padded(source, *padding), target),
        (source, zero_padded(target, *padding)),
    ]
    for first, second in variants:
        assert (nielsen_verdict(first, second).verdict, conversion_class(first, second)) == expected


def graded_spectrum(d, decades, rng):
    """Descending unit-sum spectrum whose lambda_min / lambda_max is 10**-decades."""
    exponents = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, d - 2)), [1.0]))
    spectrum = 10.0 ** (-decades * exponents)
    return spectrum / math.fsum(spectrum)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(min_value=2, max_value=12),
    decades=st.floats(min_value=0.0, max_value=14.0),
    data=st.data(),
    seed=seeds,
)
def test_hierarchy_does_not_increase_along_t_transform_chains(d, decades, data, seed):
    # Schur-concavity of e_k: a T-transform chain only moves a spectrum down
    # in the majorization order, so no level C_k may grow along it.
    rng = seeded_rng(seed)
    target = graded_spectrum(d, decades, rng)
    steps = data.draw(st.integers(min_value=1, max_value=2 * d), label="steps")
    source = t_transform_source(target, steps, rng)
    slack = 4 * d * EPS
    # (a) majorized, by correctly rounded prefix sums rather than through nielsen_verdict
    for k in range(1, d + 1):
        assert math.fsum(source[:k]) <= math.fsum(target[:k]) * (1 + slack)
    assert abs(math.fsum(source) - math.fsum(target)) <= slack
    # (b) every level, relative to its own size
    c_source = hierarchy(diagonal_state(source))
    c_target = hierarchy(diagonal_state(target))
    assert np.all(c_source >= c_target * (1 - slack))


def relative_gap(levels, reference):
    return float(np.max(np.abs(levels - reference) / reference))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(min_value=2, max_value=8), decades=st.floats(min_value=0.0, max_value=10.0), seed=seeds)
def test_routes_agree_per_level_on_graded_states(d, decades, seed):
    # The top levels are products of the smallest lambda_i, so an absolute
    # tolerance cannot see their errors; compare each level to its own size.
    rng = seeded_rng(seed)
    state = rotated(diagonal_state(graded_spectrum(d, decades, rng)), rng)
    assert relative_gap(hierarchy(state), hierarchy_via_minors(state)) <= 1e-9


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(d=st.integers(min_value=9, max_value=48), decades=st.floats(min_value=0.0, max_value=10.0), seed=seeds)
def test_routes_agree_per_level_on_graded_states_up_to_d48(d, decades, seed):
    rng = seeded_rng(seed)
    state = rotated(diagonal_state(graded_spectrum(d, decades, rng)), rng)
    assert relative_gap(hierarchy(state), hierarchy_via_minors(state)) <= 1e-9


def mpmath_hierarchy(amplitudes):
    """e_1..e_d of the unit-sum squared singular values, at 60 digits."""
    with mpmath.workdps(60):
        sigma = mpmath.svd_c(mpmath.matrix(amplitudes.tolist()), compute_uv=False)
        squares = [s**2 for s in sigma]
        total = mpmath.fsum(squares)
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(squares)
        for value in squares:
            for k in range(len(squares), 0, -1):
                e[k] += value / total * e[k - 1]
        return np.array([float(level) for level in e[1:]])


@pytest.mark.parametrize("decades", [8, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_hierarchy_matches_60_digit_reference_at_d12(decades, seed):
    rng = seeded_rng((decades, seed))
    state = rotated(diagonal_state(graded_spectrum(12, decades, rng)), rng)
    reference = mpmath_hierarchy(state.amplitudes)
    assert relative_gap(hierarchy(state), reference) <= 1e-9
    assert relative_gap(hierarchy_via_minors(state), reference) <= 1e-9


def test_hierarchy_matches_60_digit_reference_at_d24():
    rng = seeded_rng((24, 12))
    state = rotated(diagonal_state(graded_spectrum(24, 12, rng)), rng)
    reference = mpmath_hierarchy(state.amplitudes)
    assert relative_gap(hierarchy(state), reference) <= 1e-9
    assert relative_gap(hierarchy_via_minors(state), reference) <= 1e-9


@derandomized
@given(d=st.sampled_from([2, 3, 8]), tail_decades=st.floats(min_value=8.0, max_value=14.0), seed=seeds)
def test_two_level_concurrences_keep_relative_accuracy_near_product_states(d, tail_decades, seed):
    # 1 - sum lambda^2 cancels on a tail of mass 1e-14 (relative error up to 6e-3);
    # C_2 = e_2(lambda) sums nonnegative products and does not.
    rng = seeded_rng(seed)
    tail = 10.0**-tail_decades * rng.dirichlet(np.ones(d - 1))
    spectrum = np.array([1.0 - math.fsum(tail), *tail])
    state = rotated(diagonal_state(spectrum), rng)
    with mpmath.workdps(60):
        lam = [mpmath.mpf(float(v)) for v in spectrum]
        total = mpmath.fsum(lam)
        c2 = mpmath.fsum(lam[i] * lam[j] for i in range(d) for j in range(i + 1, d)) / total**2
        af, rungta = float(mpmath.sqrt(2 * d * c2 / (d - 1))), float(2 * mpmath.sqrt(c2))
    assert abs(af_concurrence(state) - af) <= 1e-8 * af
    assert abs(rungta_concurrence(state) - rungta) <= 1e-8 * rungta


def hierarchy_jacobian(spectrum):
    """J_kj = dC_k / dlambda_j = e_{k-1}(spectrum without lambda_j), k, j = 1..d."""
    columns = [[1.0, *elementary_symmetric(np.delete(spectrum, j))] for j in range(spectrum.size)]
    return np.array(columns).T


@derandomized
@given(ratios=st.lists(st.floats(min_value=1e-3, max_value=0.9), min_size=1, max_size=9))
def test_levels_c2_to_cd_are_d_minus_1_independent_invariants(ratios):
    # Row 1 of J is the normal of the simplex C_1 = 1, so C_2..C_d have
    # rank d - 1 on it exactly when J is nonsingular, and
    # |det J| = prod_{i<j} |lambda_i - lambda_j| (a Vandermonde product).
    spectrum = np.cumprod([1.0, *ratios])
    spectrum /= math.fsum(spectrum)
    d = spectrum.size
    sign, log_det = np.linalg.slogdet(hierarchy_jacobian(spectrum))
    vandermonde = math.fsum(math.log(spectrum[i] - spectrum[j]) for i in range(d) for j in range(i + 1, d))
    assert sign != 0.0
    assert abs(log_det - vandermonde) <= 1e-9


def test_levels_are_not_independent_on_a_degenerate_spectrum():
    assert np.linalg.det(hierarchy_jacobian(np.array([0.5, 0.25, 0.25]))) == 0.0


def test_scan_class_survives_local_unitaries_at_d12():
    rng = seeded_rng(0)
    for _ in range(200):
        source, target = random_pure(12, 12, rng), random_pure(12, 12, rng)
        expected = conversion_class(source, target)
        assert conversion_class(rotated(source, rng), target) == expected
        assert conversion_class(source, rotated(target, rng)) == expected


@derandomized
@given(product=st.booleans(), seed=seeds)
def test_wootters_concurrence_of_projector_is_pure_concurrence(product, seed):
    rng = seeded_rng(seed)
    if product:
        u, v = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        state = PureState(np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)))
    else:
        state = random_pure(2, 2, rng)
    assert abs(wootters_concurrence(density_matrix(state)) - wootters_pure(state)) <= WOOTTERS_TOL
    # on 2x2 states both two-level normalizations are 2 |det A|
    assert max(abs(c(state) - wootters_pure(state)) for c in (rungta_concurrence, af_concurrence)) <= WOOTTERS_TOL


# Signed zeros and subnormals, the values a lossy writer would drop or flush.
edge_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308])
parts = st.one_of(edge_parts, st.floats(min_value=-0.1, max_value=0.1))


def bits(values):
    return [struct.pack("<dd", value.real, value.imag) for value in np.ravel(values)]


@derandomized
@given(data=st.data(), dim_a=st.integers(min_value=1, max_value=4), dim_b=st.integers(min_value=1, max_value=4))
def test_state_file_round_trip_is_bit_exact(tmp_path_factory, data, dim_a, dim_b):
    count = dim_a * dim_b
    re = data.draw(st.lists(parts, min_size=count, max_size=count))
    im = data.draw(st.lists(parts, min_size=count, max_size=count))
    a = np.empty((dim_a, dim_b), dtype=complex)
    a.real.flat, a.imag.flat = re, im  # part by part, so no sign of zero is lost
    a[0, 0] = 0.0
    a[0, 0] = math.sqrt(1.0 - float(np.sum(np.abs(a) ** 2)))  # unit norm
    state = PureState(a)
    path = tmp_path_factory.mktemp("state") / "state.json"
    write_state(state, path)
    assert bits(parse_state(path)[0].amplitudes) == bits(state.amplitudes)
