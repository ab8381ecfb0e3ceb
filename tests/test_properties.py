"""Property tests for the invariants the paper relies on."""

import math
import struct
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enthier import states
from enthier.errors import DimensionMismatch, EnthierError, NegativeCoefficient, NonFiniteInput, NotNormalized, ZeroState
from enthier.linalg import elementary_symmetric, seeded_rng
from enthier.locc import (
    PREFIX_TOL,
    SLACK_TOL,
    Verdict,
    conversion_class,
    hierarchy_dominance,
    nielsen_verdict,
)
from enthier.measures import (
    NEWTON_DIM_LIMIT,
    SPIN_FLIP,
    TwoQubitDensity,
    af_concurrence,
    eof_pure,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
    invariants,
    partial_transpose_b,
    renyi_entropy,
    rungta_concurrence,
    spin_flip_lambdas,
    wootters_concurrence,
)
from enthier.reference import diagonal_state
from enthier.statefile import parse_state, write_state
from enthier.states import (
    PureState,
    from_amplitudes,
    NORM_GATE,
    from_schmidt,
    random_pure,
    schmidt_spectrum,
)
from helpers import apply_local_unitary, density_matrix, random_unitary, same_state, t_transform_source, wootters_pure

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
    assert state._power_sums is not None and invariants(state) is state._power_sums


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


def nudged(value, ulps):
    """``value`` moved ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def solved(f, goal, guess):
    """A float x near ``guess`` with f(x) == goal, for f nondecreasing."""
    x = guess
    for _ in range(64):
        if f(x) == goal:
            return x
        x = math.nextafter(x, math.inf if f(x) < goal else -math.inf)
    assume(False)


unit_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=48)


@st.composite
def verdict_inputs(draw):
    """Spectra and levels of a source and a target: independent, of lengths
    1-48, or equal, or equal but for one prefix sum or one slack placed
    exactly at the tolerance boundary of a comparison, or one ulp off it."""
    target_spectrum, target_levels = draw(unit_lists), draw(unit_lists)
    kind = draw(st.sampled_from(["independent", "equal", "prefix-gap", "slack-gap"]))
    if kind == "independent":
        return draw(unit_lists), draw(unit_lists), target_spectrum, target_levels
    source_spectrum, source_levels = list(target_spectrum), list(target_levels)
    ulps, sign, truncate = draw(st.integers(-1, 1)), draw(st.sampled_from([1, -1])), draw(st.booleans())
    if kind == "prefix-gap":
        k = draw(st.integers(0, len(target_spectrum) - 1))
        pt = list(accumulate(target_spectrum))
        if sign > 0:  # the forward comparison ps_k <= pt_k + PREFIX_TOL holds with equality
            goal = pt[k] + PREFIX_TOL
        else:  # the backward comparison pt_k <= ps_k + PREFIX_TOL holds with equality
            goal = solved(lambda x: x + PREFIX_TOL, pt[k], pt[k] - PREFIX_TOL)
        goal, before = nudged(goal, ulps), pt[k - 1] if k else 0.0
        source_spectrum[k] = solved(lambda x: before + x, goal, goal - before)
        if truncate:  # the padded prefix sums repeat the one at the boundary
            del source_spectrum[k + 1 :]
    elif kind == "slack-gap":
        k = draw(st.integers(0, len(target_levels) - 1))
        # low is a multiple of SLACK_TOL's ulp (2^-92) far below it, so high - low == SLACK_TOL exactly
        low = 0.0 if truncate else draw(st.integers(0, 2**20)) * 2.0**-92
        high = low + SLACK_TOL
        source_levels[k], target_levels[k] = (high, low) if sign > 0 else (low, high)
        source_levels[k] = nudged(source_levels[k], ulps)
        if truncate and k and source_levels[k] == 0.0:  # a padded zero level gives the same slack
            del source_levels[k:]
    return source_spectrum, source_levels, target_spectrum, target_levels


def cached_stand_in(spectrum, levels):
    """A 1x1 state whose cached spectrum and hierarchy are the given values,
    so that the verdicts read exactly these."""
    state = PureState(np.ones((1, 1)))
    object.__setattr__(state, "_spectrum", np.array(spectrum, dtype=float))
    object.__setattr__(state, "_levels", np.array(levels, dtype=float))
    return state


def numpy_verdicts(source, target):
    """The verdicts' former numpy formulation, field for field: arrays
    zero-padded to a common length, cumsum prefix sums, and vectorized
    comparisons at PREFIX_TOL and SLACK_TOL."""

    def padded(values, length):
        out = np.zeros(length)
        out[: values.size] = values
        return out

    lam_source, lam_target = schmidt_spectrum(source), schmidt_spectrum(target)
    n = max(lam_source.size, lam_target.size)
    ps, pt = padded(lam_source, n).cumsum(), padded(lam_target, n).cumsum()
    cs, ct = hierarchy(source), hierarchy(target)
    m = max(cs.size, ct.size)
    slacks = padded(cs, m) - padded(ct, m)
    return {
        "prefix_flags": (bool((ps <= pt + PREFIX_TOL).all()), bool((pt <= ps + PREFIX_TOL).all())),
        "source_prefix_sums": bits(ps),
        "target_prefix_sums": bits(pt),
        "slacks": bits(slacks),
        "source_dominates": bool((slacks >= -SLACK_TOL).all()),
        "target_dominates": bool((slacks <= SLACK_TOL).all()),
    }


PREFIX_FLAGS = {
    Verdict.EQUIVALENT: (True, True),
    Verdict.FORWARD_ONLY: (True, False),
    Verdict.BACKWARD_ONLY: (False, True),
    Verdict.INCOMPARABLE: (False, False),
}


# Length-48 inputs on which the prefix comparisons end at different places:
# both directions failed by the second of 48 sums, one fails only at the
# last sum, both fail but the second only at the last sum, and 48 against 3.
LONG_VERDICT_INPUTS = [
    ([0.5, 0.0] + [0.5] * 46, [0.1] * 48, [0.4, 0.2] + [0.5] * 46, [0.1] * 47 + [0.2]),
    ([0.02] * 48, [0.3] + [0.1] * 47, [0.02] * 47 + [0.03], [0.2] + [0.1] * 47),
    ([0.03] + [0.02] * 46 + [0.0], [0.1] * 48, [0.02] * 47 + [0.04], [0.1] * 48),
    ([1.0 / 48] * 48, [0.05] * 48, [0.5, 0.3, 0.2], [0.1, 0.2, 0.3]),
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inputs=verdict_inputs())
@example(inputs=LONG_VERDICT_INPUTS[0])
@example(inputs=LONG_VERDICT_INPUTS[1])
@example(inputs=LONG_VERDICT_INPUTS[2])
@example(inputs=LONG_VERDICT_INPUTS[3])
def test_verdicts_match_the_former_numpy_formulation_bit_for_bit(inputs):
    source_spectrum, source_levels, target_spectrum, target_levels = inputs
    source = cached_stand_in(source_spectrum, source_levels)
    target = cached_stand_in(target_spectrum, target_levels)
    for first, second in [(source, target), (target, source)]:
        verdict, dominance = nielsen_verdict(first, second), hierarchy_dominance(first, second)
        assert {
            "prefix_flags": PREFIX_FLAGS[verdict.verdict],
            "source_prefix_sums": bits(verdict.source_prefix_sums),
            "target_prefix_sums": bits(verdict.target_prefix_sums),
            "slacks": bits(dominance.slacks),
            "source_dominates": dominance.source_dominates,
            "target_dominates": dominance.target_dominates,
        } == numpy_verdicts(first, second)
        assert all(type(value) is float for value in (*verdict.source_prefix_sums, *dominance.slacks))


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


def local_measurement(dim, outcomes, rng):
    """Kraus operators of a random local measurement, sum_j M_j^dagger M_j = I:
    the dim x dim blocks of a Haar isometry from C^dim into C^(outcomes dim)."""
    return np.split(random_unitary(dim * outcomes, rng)[:, :dim], outcomes)


@derandomized
@given(
    d=st.integers(min_value=2, max_value=8),
    decades=st.floats(min_value=0.0, max_value=8.0),
    outcomes=st.integers(min_value=2, max_value=4),
    bob=st.booleans(),
    seed=seeds,
)
def test_c2_and_each_root_level_do_not_rise_on_average_under_local_measurements(d, decades, outcomes, bob, seed):
    # C_2 is concave in rho_A (Vidal, J. Mod. Opt. 47, 355, 2000) and each
    # C_k^(1/k) is one of Gour's concurrence monotones (PRA 71, 012318, 2005):
    # neither rises on average over the outcomes of a local measurement.
    # The raw C_k can for k >= 3 (test_locc's Procrustean example).
    rng = seeded_rng(seed)
    state = rotated(diagonal_state(graded_spectrum(d, decades, rng)), rng)
    roots = 1.0 / np.arange(1, d + 1)
    average_c2 = 0.0
    average_roots = np.zeros(d)
    for kraus in local_measurement(d, outcomes, rng):
        branch = state.amplitudes @ kraus.T if bob else kraus @ state.amplitudes
        weight = float(np.linalg.norm(branch) ** 2)
        levels = hierarchy(PureState(branch / math.sqrt(weight)))
        average_c2 += weight * levels[1]
        average_roots += weight * levels**roots
    before = hierarchy(state)
    assert average_c2 <= before[1] * (1 + 1e-9)
    assert np.all(average_roots <= before**roots * (1 + 1e-9))


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
    assert abs(wootters_concurrence(TwoQubitDensity(density_matrix(state))) - wootters_pure(state)) <= WOOTTERS_TOL
    # on 2x2 states both two-level normalizations are 2 |det A|
    assert max(abs(c(state) - wootters_pure(state)) for c in (rungta_concurrence, af_concurrence)) <= WOOTTERS_TOL


def ginibre_density(rank, rng):
    """Two-qubit density G G^dagger / Tr, G a 4 x rank complex Gaussian."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@derandomized
@given(rank=st.integers(min_value=1, max_value=4), seed=seeds)
def test_spin_flip_lambdas_match_a_general_eigensolver(rank, seed):
    # A second route: the squared lambdas are the eigenvalues of rho rho~,
    # rho~ = S rho* S, from LAPACK geev, which the SVD route does not use.
    # Roots of geev's values near 0 lose to ~4e-8, so the squares are compared.
    rho = ginibre_density(rank, seeded_rng(seed))
    density = TwoQubitDensity(rho)
    lambdas = spin_flip_lambdas(density)
    reference = np.sort(np.linalg.eigvals(rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP).real)[::-1]
    assert np.max(np.abs(lambdas**2 - reference)) <= 1e-13
    # the memoized lambdas give the concurrence a fresh density computes
    assert wootters_concurrence(density) == wootters_concurrence(TwoQubitDensity(rho))


@derandomized
@given(rank=st.integers(min_value=1, max_value=4), seed=seeds)
def test_negativity_is_sandwiched_by_the_concurrence(rank, seed):
    # N <= C and N >= sqrt((1 - C)^2 + C^2) - (1 - C) for every two-qubit
    # density (Verstraete, Audenaert, Dehaene and De Moor, J. Phys. A 34,
    # 10327, 2001); rank 1 meets the upper bound, so it needs a tolerance.
    rho = ginibre_density(rank, seeded_rng(seed))
    c = wootters_concurrence(TwoQubitDensity(rho))
    negativity = 2.0 * max(0.0, -np.linalg.eigvalsh(partial_transpose_b(rho))[0])
    assert negativity <= c + WOOTTERS_TOL
    assert negativity >= math.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c) - WOOTTERS_TOL


def werner_density(p):
    """p |Psi-><Psi-| + (1 - p) I / 4."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(singlet, singlet).astype(complex) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


@derandomized
@given(rank=st.integers(min_value=0, max_value=4), p=st.floats(min_value=0.0, max_value=1.0), seed=seeds)
def test_wootters_concurrence_is_local_unitary_invariant(rank, p, seed):
    # C(rho) = C((U x V) rho (U x V)^dagger); rank 0 draws a Werner state.
    # The largest drift seen over 3000 such draws was 1.5e-14.
    rng = seeded_rng(seed)
    rho = werner_density(p) if rank == 0 else ginibre_density(rank, rng)
    local = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    turned = local @ rho @ local.conj().T
    turned = 0.5 * (turned + turned.conj().T)
    assert abs(wootters_concurrence(TwoQubitDensity(turned)) - wootters_concurrence(TwoQubitDensity(rho))) <= 1e-13


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


def unsigned_parts(count, renormalize):
    """``count`` nonnegative parts, not all zero. For ``renormalize`` they
    share a scale between about 1e-320 and 1e300 and each lies up to 2^-60
    below it, so the small scales give subnormal parts; otherwise they have
    unit norm times 1 + delta, |delta| under the 1e-6 gate."""
    mantissas = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=count, max_size=count)
    if renormalize:
        offsets = st.lists(st.integers(min_value=-60, max_value=0), min_size=count, max_size=count)
        exponent = st.integers(min_value=-1063, max_value=996)
        parts = st.builds(lambda m, k, e: [math.ldexp(x, e + dk) for x, dk in zip(m, k)], mantissas, offsets, exponent)
    else:
        mantissas = mantissas.filter(lambda m: max(m) >= 2.0**-10)  # a norm that cannot underflow
        deltas = st.floats(min_value=-9e-7, max_value=9e-7)
        parts = st.builds(lambda m, delta: np.array(m) / np.linalg.norm(m) * (1.0 + delta), mantissas, deltas)
    return parts.filter(lambda v: any(x > 0.0 for x in v))


def owned_and_checked(state, *inputs):
    """The state holds what PureState(...) accepts, read-only, sharing no memory with its inputs."""
    assert same_state(PureState(state.amplitudes), state)
    assert not state.amplitudes.flags.writeable
    assert not any(np.shares_memory(state.amplitudes, x) for x in inputs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim_a=st.integers(min_value=1, max_value=8), dim_b=st.integers(min_value=1, max_value=8), seed=seeds)
def test_random_states_hold_only_what_the_checks_accept(dim_a, dim_b, seed):
    owned_and_checked(random_pure(dim_a, dim_b, seeded_rng(seed)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(min_value=1, max_value=8), renormalize=st.booleans())
def test_schmidt_states_hold_only_what_the_checks_accept(data, d, renormalize):
    coefficients = np.array(data.draw(unsigned_parts(d, renormalize)))
    owned_and_checked(from_schmidt(coefficients, renormalize=renormalize), coefficients)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    dim_a=st.integers(min_value=1, max_value=4),
    dim_b=st.integers(min_value=1, max_value=4),
    renormalize=st.booleans(),
)
def test_amplitude_states_hold_only_what_the_checks_accept(data, dim_a, dim_b, renormalize):
    count = dim_a * dim_b
    magnitudes = np.array(data.draw(unsigned_parts(2 * count, renormalize)))
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=2 * count, max_size=2 * count)))
    parts = signs * magnitudes
    values = (parts[:count] + 1j * parts[count:]).reshape(dim_a, dim_b)
    entries = [(i, j, values[i, j]) for i in range(dim_a) for j in range(dim_b)]
    owned_and_checked(from_amplitudes(dim_a, dim_b, entries, renormalize=renormalize), values, magnitudes)


# Both ends of every range: product states give 0, and maximally entangled
# d x d states the maximum, where rounding used to overshoot by a few ulps.
BOUNDED_EXAMPLES = [from_schmidt([1.0] + [0.0] * (d - 1)) for d in (1, 2, 3, 8, 48)] + [
    from_schmidt([1.0] * d, renormalize=True) for d in range(2, 49)
]


def bounded_states():
    """Haar states, Schmidt states from unsigned parts at any scale, and
    rotated states with graded spectra."""
    haar = st.builds(lambda a, b, seed: random_pure(a, b, seeded_rng(seed)), dims, dims, seeds)
    schmidt = st.integers(min_value=1, max_value=12).flatmap(lambda d: unsigned_parts(d, True))
    graded = st.builds(
        lambda d, decades, seed: rotated(diagonal_state(graded_spectrum(d, decades, seeded_rng(seed))), seeded_rng(seed)),
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=14.0),
        seeds,
    )
    return st.one_of(haar, schmidt.map(lambda parts: from_schmidt(np.array(parts), renormalize=True)), graded)


def with_examples(states):
    def decorate(test):
        for state in states:
            test = example(state=state)(test)
        return test

    return decorate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@with_examples(BOUNDED_EXAMPLES)
@given(state=bounded_states())
def test_two_level_concurrences_and_entropies_stay_in_their_ranges(state):
    spectrum = schmidt_spectrum(state)
    d = spectrum.size
    orders = (0.5, 1.0, 2.0, 3.0, math.inf)
    values = {
        "af_concurrence": af_concurrence(state),
        "rungta_concurrence": rungta_concurrence(state),
        "eof": eof_pure(state),
        **{f"renyi {order}": renyi_entropy(state, order) for order in orders},
    }
    tops = {
        "af_concurrence": 1.0 if d > 1 else 0.0,
        "rungta_concurrence": math.sqrt(2.0 * (d - 1) / d),
        "eof": math.log2(d),
        **{f"renyi {order}": math.log2(d) for order in orders},
    }
    for name, value in values.items():
        assert 0.0 <= value <= tops[name], name
    if np.count_nonzero(spectrum) == 1:  # a product state
        assert all(value == 0.0 for value in values.values())
    if np.ptp(spectrum) <= EPS:  # a flat spectrum: maximally entangled
        for name, value in values.items():
            assert math.isclose(value, tops[name], rel_tol=1e-12), name
    # entropies are memoized by order: a second lookup, under any spelling of the
    # order, is the first float, which has the bits of a fresh state's
    fresh = PureState(state.amplitudes)
    for order in (*orders, 1.0 + 1e-8, 1.0 - 1e-8):
        value = renyi_entropy(state, order)
        assert renyi_entropy(state, order) is value
        assert renyi_entropy(state, np.float64(order)) is value
        assert renyi_entropy(state, np.array(order)) is value
        assert struct.pack("<d", renyi_entropy(fresh, np.array(order))) == struct.pack("<d", value)
    for order in (1, 2, 3):
        assert renyi_entropy(state, order) is renyi_entropy(state, float(order))
    assert eof_pure(state) is renyi_entropy(state, 1.0)


def numpy_normalized(values, renormalize, what):
    """``states._normalized`` in its former numpy formulation: the peak from
    np.maximum of the parts' magnitudes, the scaled norm from np.linalg.norm."""
    peak = float(np.max(np.maximum(np.abs(values.real), np.abs(values.imag))))
    if not math.isfinite(peak):
        raise NonFiniteInput(f"{what} contain non-finite entries")
    if peak == 0.0:
        raise ZeroState(f"all {what} are zero")
    scale = math.ldexp(1.0, min(max(math.frexp(peak)[1], -1021), 1023))
    scaled_norm = float(np.linalg.norm(values / scale))
    norm = scale * scaled_norm
    if not renormalize and abs(norm - 1.0) > NORM_GATE:
        raise NotNormalized(f"norm {norm!r} deviates from 1 beyond 1e-6; pass renormalize")
    if abs(norm - 1.0) > 1e-12:
        return values / scale / scaled_norm
    return values


def numpy_from_schmidt(coefficients, renormalize):
    """``from_schmidt``'s former formulation, returning the amplitude matrix;
    the refusal names the coefficient as a Python float."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise DimensionMismatch("coefficients must be a non-empty 1-D sequence")
    if np.any(c < 0.0):
        raise NegativeCoefficient(f"coefficient {float(c.min())!r} is negative")
    c = numpy_normalized(c, renormalize, "coefficients")
    a = np.zeros((c.size, c.size), dtype=complex)
    np.fill_diagonal(a, c.astype(complex))
    return a


def outcome(make, *args):
    """The bytes of what ``make`` returns, or the class and message of its refusal."""
    try:
        return make(*args).tobytes()
    except EnthierError as exc:
        return type(exc), str(exc)


# deviations from a unit norm on both sides of the 1e-12 skip and the 1e-6 gate
NORM_DEVIATIONS = [0.0, 4e-13, -4e-13, 3e-12, -3e-12, 9e-7, -9e-7, 2e-6, -2e-6]


@st.composite
def float_parts(draw, count):
    """``count`` signed parts: graded over up to 80 binades anywhere from
    subnormal to ~1e308, a unit vector times 1 + delta, or all zero; in a
    quarter of the draws, one to three parts replaced by +-0.0, +-inf or NaN."""
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=count, max_size=count))
    mantissas = draw(st.lists(st.floats(0.5, 1.0, exclude_max=True), min_size=count, max_size=count))
    kind = draw(st.sampled_from(["graded", "near-unit", "near-unit", "zero"]))
    if kind == "graded":
        top = draw(st.integers(min_value=-1070, max_value=1024))
        offsets = draw(st.lists(st.integers(min_value=-80, max_value=0), min_size=count, max_size=count))
        parts = [s * math.ldexp(m, top + k) for s, m, k in zip(signs, mantissas, offsets)]
    elif kind == "near-unit":
        unit = np.array(signs) * np.array(mantissas)
        delta = draw(st.sampled_from(NORM_DEVIATIONS) | st.floats(min_value=-3e-6, max_value=3e-6))
        parts = (unit / np.linalg.norm(unit) * (1.0 + delta)).tolist()
    else:
        parts = [math.copysign(0.0, s) for s in signs]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
        for position, value in draw(st.lists(st.tuples(st.integers(0, count - 1), specials), min_size=1, max_size=3)):
            parts[position] = value
    return parts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    count=st.integers(min_value=1, max_value=64),
    is_complex=st.booleans(),
    renormalize=st.booleans(),
)
def test_normalization_matches_the_former_numpy_formulation_bit_for_bit(data, count, is_complex, renormalize):
    if is_complex:
        parts = data.draw(float_parts(2 * count))
        values = np.empty(count, dtype=complex)
        values.real, values.imag = parts[:count], parts[count:]  # part by part, so no sign of zero is lost
        rows = data.draw(st.sampled_from([r for r in range(1, count + 1) if count % r == 0]))
        values = values.reshape(rows, count // rows)
    else:
        values = np.array(data.draw(float_parts(count)))
    assert outcome(states._normalized, values, renormalize, "parts") == outcome(
        numpy_normalized, values, renormalize, "parts"
    )
    if not is_complex:
        assert outcome(lambda *args: from_schmidt(*args).amplitudes, values, renormalize) == outcome(
            numpy_from_schmidt, values, renormalize
        )
        magnitudes = np.where(values < 0.0, -values, values)  # coefficients it accepts, -0.0 kept
        assert outcome(lambda *args: from_schmidt(*args).amplitudes, magnitudes, renormalize) == outcome(
            numpy_from_schmidt, magnitudes, renormalize
        )


def numpy_scalar_newton(power_sums, d):
    """``hierarchy_via_invariants``' former recurrence, on numpy float64 scalars."""
    e = np.zeros(d + 1)
    e[0] = 1.0
    for k in range(1, d + 1):
        acc = 0.0
        for m in range(1, k + 1):
            acc += (-1.0) ** (m - 1) * e[k - m] * power_sums[m - 1]
        e[k] = acc / k
    e[e < 0.0] = 0.0
    return e[1:]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    dim_a=dims,
    dim_b=dims,
    seed=seeds,
    rank=st.integers(min_value=1, max_value=NEWTON_DIM_LIMIT),
    decades=st.integers(min_value=0, max_value=12),
)
def test_newton_recurrence_on_python_floats_matches_numpy_scalars_bit_for_bit(dim_a, dim_b, seed, rank, decades):
    rng = seeded_rng(seed)
    d, rank = min(dim_a, dim_b), min(rank, dim_a, dim_b)
    if decades and rank > 1:  # a graded, possibly rank-deficient spectrum, whose top levels round below 0
        state = from_schmidt(np.sqrt(np.concatenate([graded_spectrum(rank, decades, rng), np.zeros(d - rank)])))
    else:
        state = random_pure(dim_a, dim_b, rng)
    power_sums = invariants(state)
    assert bits(hierarchy_via_invariants(state)) == bits(numpy_scalar_newton(power_sums, d))
