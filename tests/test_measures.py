import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enthier import linalg, measures, states
from enthier.errors import (
    ConcurrenceOutOfRange,
    DimensionMismatch,
    DimensionTooLargeForNewton,
    InvalidDensity,
    NonPositiveOrder,
)
from enthier.linalg import seeded_rng
from enthier.measures import (
    NEWTON_DIM_LIMIT,
    SPIN_FLIP,
    Separability,
    TwoQubitDensity,
    af_concurrence,
    binary_entropy,
    eof_from_concurrence,
    eof_pure,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
    invariants,
    ppt_check,
    renyi_entropy,
    rungta_concurrence,
    spin_flip_lambdas,
    wootters_concurrence,
)
from enthier.states import from_amplitudes, from_schmidt, random_pure
from helpers import apply_local_unitary, density_matrix, random_unitary, wootters_pure

# --------------------------------------------------------------- fixtures


def diagonal_state(spectrum):
    return from_schmidt(np.sqrt(spectrum))


def bell_state():
    return from_amplitudes(2, 2, [(0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.5))])


def bell_projector():
    return density_matrix(bell_state())


def werner(p):
    return p * bell_projector() + (1.0 - p) * np.eye(4) / 4.0


def expected_werner_concurrence(p):
    # analytic diagonalization: rho rho~ eigenvalues ((1+3p)/4)^2 and 3x ((1-p)/4)^2
    return max(0.0, (3.0 * p - 1.0) / 2.0)


# --------------------------------------------------------------- hierarchy


def test_hierarchy_golden_values():
    psi = hierarchy(diagonal_state([0.5, 0.4, 0.1]))
    phi = hierarchy(diagonal_state([0.6, 0.2, 0.2]))
    psi_prime = hierarchy(diagonal_state([0.55, 0.3, 0.15]))
    assert abs(psi[1] - 0.29) <= 1e-12 and abs(psi[2] - 0.020) <= 1e-12
    assert abs(phi[1] - 0.28) <= 1e-12 and abs(phi[2] - 0.024) <= 1e-12
    assert abs(psi_prime[1] - 0.2925) <= 1e-12 and abs(psi_prime[2] - 0.02475) <= 1e-12


def test_hierarchy_product_state():
    levels = hierarchy(from_schmidt([1.0, 0.0, 0.0]))
    assert levels[0] == 1.0
    assert np.array_equal(levels[1:], [0.0, 0.0])


def test_hierarchy_first_level_is_normalization():
    rng = seeded_rng(301)
    for _ in range(25):
        state = random_pure(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng)
        assert abs(hierarchy(state)[0] - 1.0) <= 1e-9


def test_hierarchy_range_bound():
    rng = seeded_rng(302)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        levels = hierarchy(random_pure(d, d, rng))
        for k, value in enumerate(levels, start=1):
            assert -1e-12 <= value <= math.comb(d, k) / d**k + 1e-12


def test_hierarchy_maximum_at_uniform_spectrum():
    d = 4
    levels = hierarchy(from_schmidt(np.full(d, 1.0 / math.sqrt(d))))
    for k, value in enumerate(levels, start=1):
        assert abs(value - math.comb(d, k) / d**k) <= 1e-12


def test_minors_route_golden_values():
    third = from_schmidt([math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), math.sqrt(2.0 / 3.0)])
    assert abs(hierarchy_via_minors(third)[2] - 1.0 / 54.0) <= 1e-12
    two_term = from_schmidt([math.sqrt(0.5), math.sqrt(0.5), 0.0])
    assert hierarchy_via_minors(two_term)[2] == 0.0


def test_minors_route_matches_eigen_route():
    rng = seeded_rng(303)
    state = random_pure(4, 4, rng)
    assert np.allclose(hierarchy_via_minors(state), hierarchy(state), atol=1e-9)


@pytest.mark.parametrize("shape", [(13, 13), (13, 14), (48, 48)], ids=["13x13", "13x14", "48x48"])
def test_minors_route_matches_eigen_route_per_level_above_twelve(shape):
    state = random_pure(*shape, seeded_rng((304, *shape)))
    eig = hierarchy(state)
    assert np.all(np.abs(hierarchy_via_minors(state) - eig) <= 1e-12 * eig)


def test_newton_route_golden_arithmetic():
    state = diagonal_state([0.5, 0.4, 0.1])
    inv = invariants(state)
    assert abs(inv[1] - 0.42) <= 1e-12
    assert abs(inv[2] - 0.19) <= 1e-12
    # power-sum arithmetic oracle for the third level
    expected_c3 = (1.0 - 3.0 * inv[1] + 2.0 * inv[2]) / 6.0
    assert abs(hierarchy_via_invariants(state)[2] - expected_c3) <= 1e-12
    assert abs(expected_c3 - 0.020) <= 1e-12


def test_newton_route_bell_second_level():
    state = bell_state()
    assert abs(hierarchy_via_invariants(state)[1] - 0.25) <= 1e-12


def test_newton_route_refuses_min_dimensions_above_eight():
    assert NEWTON_DIM_LIMIT == 8
    at_limit = random_pure(8, 8, seeded_rng(311))
    assert np.allclose(hierarchy_via_invariants(at_limit), hierarchy(at_limit), atol=1e-8)
    with pytest.raises(DimensionTooLargeForNewton, match=r"^newton route: min dimension 9 exceeds 8$"):
        hierarchy_via_invariants(random_pure(9, 9, seeded_rng(312)))


def test_newton_route_matches_eigen_route():
    state = random_pure(5, 5, seeded_rng(305))
    assert np.allclose(hierarchy_via_invariants(state), hierarchy(state), atol=1e-8)


def test_invariants_are_memoized_read_only_and_formed_once(monkeypatch):
    state = random_pure(4, 6, seeded_rng(313))
    traces = []
    original_trace = np.trace

    def counted_trace(*args, **kwargs):
        traces.append(1)
        return original_trace(*args, **kwargs)

    monkeypatch.setattr(np, "trace", counted_trace)  # one trace normalizes each Gram matrix formed
    first = invariants(state)
    assert invariants(state) is first is state._power_sums
    hierarchy_via_invariants(state)
    assert len(traces) == 1
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_newton_route_reads_the_power_sum_memo():
    # a memo holding another state's power sums gives that state's levels
    state, other = random_pure(3, 3, seeded_rng(314)), random_pure(3, 3, seeded_rng(315))
    object.__setattr__(state, "_power_sums", invariants(other))
    assert hierarchy_via_invariants(state).tobytes() == hierarchy_via_invariants(other).tobytes()


def test_two_level_concurrences_share_one_level_pass(monkeypatch):
    passes = []

    def counted(values):
        passes.append(1)
        return linalg.elementary_symmetric(values)

    monkeypatch.setattr(measures, "elementary_symmetric", counted)
    state = random_pure(3, 5, seeded_rng(316))
    af, rungta = af_concurrence(state), rungta_concurrence(state)
    assert len(passes) == 1
    assert (af, rungta) == (af_concurrence(state), rungta_concurrence(state))
    assert len(passes) == 1


def test_triple_path_agreement():
    rng = seeded_rng(306)
    for _ in range(60):
        state = random_pure(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
        eig = hierarchy(state)
        minors = hierarchy_via_minors(state)
        newton = hierarchy_via_invariants(state)
        assert np.allclose(eig, minors, atol=1e-8)
        assert np.allclose(eig, newton, atol=1e-8)
        assert np.allclose(minors, newton, atol=1e-8)


def test_minor_and_newton_routes_call_no_eigensolver(monkeypatch):
    rng = seeded_rng(310)
    cases = []
    for _ in range(20):
        state = random_pure(int(rng.integers(1, 8)), int(rng.integers(1, 8)), rng)
        cases.append((state.amplitudes, hierarchy(state)))
    above_twelve = random_pure(13, 14, rng)
    above_twelve_eig = hierarchy(above_twelve)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver, SVD, QR or determinant called")

    monkeypatch.setattr(states, "schmidt_spectrum", refuse)
    monkeypatch.setattr(measures, "schmidt_spectrum", refuse)
    monkeypatch.setattr(linalg, "singular_values_squared", refuse)
    monkeypatch.setattr(measures, "singular_values_squared", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    for amplitudes, eig in cases:
        fresh = states.PureState(amplitudes)  # no cached spectrum
        assert np.allclose(hierarchy_via_minors(fresh), eig, atol=1e-8)
        assert np.allclose(hierarchy_via_invariants(fresh), eig, atol=1e-8)
    fresh = states.PureState(above_twelve.amplitudes)
    assert np.all(np.abs(hierarchy_via_minors(fresh) - above_twelve_eig) <= 1e-12 * above_twelve_eig)


def test_zero_pattern_beyond_schmidt_rank():
    rng = seeded_rng(307)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        raw = rng.uniform(0.1, 1.0, size=r)
        coeffs = np.zeros(d)
        coeffs[:r] = raw / np.linalg.norm(raw)
        state = from_schmidt(coeffs)
        for levels in (hierarchy(state), hierarchy_via_minors(state)):
            assert np.array_equal(levels[r:], np.zeros(d - r))


def test_separability_iff_trivial_hierarchy():
    product = from_amplitudes(3, 3, [(1, 2, 1.0)])
    assert np.all(hierarchy(product)[1:] <= 1e-10)
    entangled = random_pure(3, 3, seeded_rng(308))
    assert hierarchy(entangled)[1] > 1e-10


# -------------------------------------------------------------- invariants


def test_invariants_normalization_head():
    rng = seeded_rng(309)
    for _ in range(10):
        state = random_pure(int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        inv = invariants(state)
        assert abs(inv[0] - 1.0) <= 1e-9
        assert np.all(np.diff(inv) <= 1e-12)
        assert np.all(inv >= -1e-15)


def test_invariants_have_the_bits_of_one_trace_per_power():
    rng = seeded_rng(310)
    for d in range(1, 49):
        for rows, cols in ((d, d), (d, d + int(rng.integers(1, 5)))):
            for state in (random_pure(rows, cols, rng), random_pure(cols, rows, rng)):
                a = state.amplitudes
                gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
                gram = gram / np.trace(gram).real
                power, traces = gram, [np.trace(gram).real]
                for _ in range(1, d):
                    power = power @ gram
                    traces.append(np.trace(power).real)
                assert invariants(state).tobytes() == np.array(traces).tobytes()


def test_invariants_maximally_entangled():
    d = 4
    inv = invariants(from_schmidt(np.full(d, 1.0 / math.sqrt(d))))
    assert np.allclose(inv, [d ** (-k) for k in range(d)], atol=1e-12)


# ---------------------------------------------------------------- entropy


def test_renyi_bell_order_two():
    assert abs(renyi_entropy(bell_state(), 2) - 1.0) <= 1e-12


def test_renyi_product_state_any_order():
    product = from_amplitudes(2, 2, [(0, 1, 1.0)])
    for order in (0.5, 1, 2, 3.7):
        assert abs(renyi_entropy(product, order)) <= 1e-12
    for order in (0.5, 1, 2, math.inf):
        assert math.copysign(1.0, renyi_entropy(product, order)) == 1.0


def mpmath_renyi(spectrum, order):
    """Renyi entropy in bits of the normalized spectrum, at 60 digits."""
    with mpmath.workdps(60):
        values = [mpmath.mpf(float(value)) for value in spectrum]
        total = mpmath.fsum(values)
        alpha = mpmath.mpf(order)
        power_sum = mpmath.fsum((value / total) ** alpha for value in values)
        return float(mpmath.log(power_sum, 2) / (1 - alpha))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(min_value=2, max_value=48),
    decades=st.floats(min_value=0.0, max_value=12.0),
    offset=st.sampled_from([-1e-4, -1e-8, -1e-12, 1e-12, 1e-8, 1e-4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_renyi_continuous_at_order_one(d, decades, offset, seed):
    # Near order 1 the general form's two terms grow as 1 / |1 - order| and
    # cancel, so these orders check the form that replaces it there.
    exponents = np.concatenate(([0.0], np.sort(seeded_rng(seed).uniform(0.0, 1.0, d - 2)), [1.0]))
    spectrum = 10.0 ** (-decades * exponents)
    spectrum /= math.fsum(spectrum)
    assume(spectrum[0] <= 0.9)  # near-product spectra are a separate matter
    reference = mpmath_renyi(spectrum, 1.0 + offset)
    assert abs(renyi_entropy(diagonal_state(spectrum), 1.0 + offset) - reference) <= 1e-12 * reference


def test_renyi_infinite_order_is_min_entropy():
    state = diagonal_state([0.5, 0.4, 0.1])
    assert renyi_entropy(state, math.inf) == 1.0
    assert abs(renyi_entropy(state, 1e6) - 1.0) <= 1e-5


def test_renyi_rejects_bad_order():
    state = bell_state()
    for order in (0, -1, math.nan) * 2:  # refused every time, never memoized
        with pytest.raises(NonPositiveOrder):
            renyi_entropy(state, order)
    assert not state._entropies


def test_eof_pure_bell_is_one_bit():
    assert abs(eof_pure(bell_state()) - 1.0) <= 1e-12


def test_eof_pure_product_is_zero():
    assert eof_pure(from_amplitudes(3, 2, [(2, 0, 1.0)])) == 0.0


# ------------------------------------------------------------ concurrences


def test_af_concurrence_values():
    uniform3 = from_schmidt(np.full(3, 1.0 / math.sqrt(3.0)))
    assert abs(af_concurrence(uniform3) - 1.0) <= 1e-9
    assert af_concurrence(from_schmidt([1.0, 0.0])) == 0.0
    assert af_concurrence(from_amplitudes(1, 3, [(0, 1, 1.0)])) == 0.0  # d = 1
    two_term = from_schmidt([math.sqrt(0.5), math.sqrt(0.5), 0.0])
    third = from_schmidt([math.sqrt(1 / 6), math.sqrt(1 / 6), math.sqrt(2 / 3)])
    assert abs(af_concurrence(two_term) - 0.8660254037844386) <= 1e-12
    assert abs(af_concurrence(two_term) - af_concurrence(third)) <= 1e-12


def test_af_concurrence_non_square_uses_min_dimension():
    wide = from_amplitudes(2, 5, [(0, 0, math.sqrt(0.5)), (1, 4, math.sqrt(0.5))])
    assert abs(af_concurrence(wide) - 1.0) <= 1e-9


def test_rungta_concurrence_values():
    assert abs(rungta_concurrence(bell_state()) - 1.0) <= 1e-12
    assert rungta_concurrence(from_schmidt([1.0, 0.0])) == 0.0
    assert rungta_concurrence(from_amplitudes(1, 3, [(0, 1, 1.0)])) == 0.0  # d = 1
    state = diagonal_state([0.5, 0.4, 0.1])
    assert abs(rungta_concurrence(state) - 1.0770329614269007) <= 1e-12  # sqrt(1.16)


def test_rungta_af_ratio():
    rng = seeded_rng(310)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        state = random_pure(d, d, rng)
        ratio = math.sqrt(2.0 * (d - 1) / d)
        assert abs(rungta_concurrence(state) - ratio * af_concurrence(state)) <= 1e-12


# ----------------------------------------------------------- two qubits


def test_spin_flip_operator_shape():
    assert SPIN_FLIP.shape == (4, 4)
    assert np.array_equal(SPIN_FLIP @ SPIN_FLIP, np.eye(4))
    assert set(np.unique(SPIN_FLIP)) == {-1.0, 0.0, 1.0}
    assert np.array_equal(SPIN_FLIP != 0, np.fliplr(np.eye(4)).astype(bool))


def test_wootters_bell_projector():
    assert abs(wootters_concurrence(TwoQubitDensity(bell_projector())) - 1.0) <= 1e-9


def test_wootters_maximally_mixed():
    assert wootters_concurrence(TwoQubitDensity(np.eye(4) / 4.0)) == 0.0


@pytest.mark.parametrize("p", [0.2, 1.0 / 3.0, 0.5, 0.9])
def test_wootters_werner_analytic(p):
    assert abs(wootters_concurrence(TwoQubitDensity(werner(p))) - expected_werner_concurrence(p)) <= 1e-9


def test_wootters_invalid_densities():
    with pytest.raises(InvalidDensity):
        wootters_concurrence(TwoQubitDensity(np.eye(4)))  # trace 4
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.2
    with pytest.raises(InvalidDensity):
        wootters_concurrence(TwoQubitDensity(bad))  # not Hermitian
    with pytest.raises(InvalidDensity):
        wootters_concurrence(TwoQubitDensity(np.diag([1.5, -0.5, 0.0, 0.0])))  # negative eigenvalue
    with pytest.raises(InvalidDensity):
        wootters_concurrence(TwoQubitDensity(np.eye(3) / 3.0))  # wrong shape


def test_two_qubit_density_copies_its_input_and_is_read_only():
    rho = werner(0.6)
    density = TwoQubitDensity(rho)
    rho[0, 0] = 5.0
    assert np.array_equal(density.matrix, werner(0.6))
    with pytest.raises(ValueError):
        density.matrix[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        density.matrix = rho


def test_spin_flip_lambdas_are_memoized_read_only_from_one_svd(monkeypatch):
    density = TwoQubitDensity(werner(0.6))
    svds = []
    original_svd = measures.singular_values_squared

    def counted_svd(matrix):
        svds.append(1)
        return original_svd(matrix)

    monkeypatch.setattr(measures, "singular_values_squared", counted_svd)
    first = spin_flip_lambdas(density)
    assert spin_flip_lambdas(density) is first
    assert abs(wootters_concurrence(density) - expected_werner_concurrence(0.6)) <= 1e-9
    assert len(svds) == 1
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_wootters_pure_golden_values():
    assert abs(wootters_pure(bell_state()) - 1.0) <= 1e-12
    assert wootters_pure(from_amplitudes(2, 2, [(0, 1, 1.0)])) == 0.0
    lopsided = from_amplitudes(2, 2, [(0, 0, math.sqrt(0.9)), (1, 1, math.sqrt(0.1))])
    assert abs(wootters_pure(lopsided) - 0.6) <= 1e-12


def test_wootters_pure_requires_two_qubits():
    with pytest.raises(DimensionMismatch):
        wootters_pure(from_schmidt([1.0, 0.0, 0.0]))


def test_wootters_pure_matches_mixed_on_projectors():
    rng = seeded_rng(311)
    for _ in range(100):
        state = random_pure(2, 2, rng)
        pure = wootters_pure(state)
        mixed = wootters_concurrence(TwoQubitDensity(density_matrix(state)))
        assert abs(pure - mixed) <= 1e-9


def test_eof_from_concurrence_endpoints():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0


def test_eof_from_concurrence_golden_interior():
    # binary entropy oracle: epsilon(0.6) = h(0.9)
    assert abs(eof_from_concurrence(0.6) - 0.4689955935892811) <= 1e-15
    assert abs(binary_entropy(0.9) - 0.4689955935892811) <= 1e-15


def test_eof_from_concurrence_rejects_out_of_range():
    with pytest.raises(ConcurrenceOutOfRange):
        eof_from_concurrence(-0.1)
    with pytest.raises(ConcurrenceOutOfRange):
        eof_from_concurrence(1.1)


def test_eof_consistency_on_pure_states():
    rng = seeded_rng(312)
    for _ in range(100):
        state = random_pure(2, 2, rng)
        assert abs(eof_from_concurrence(wootters_pure(state)) - eof_pure(state)) <= 1e-9


def test_ppt_verdicts():
    assert ppt_check(TwoQubitDensity(np.eye(4) / 4.0)) is Separability.SEPARABLE
    assert ppt_check(TwoQubitDensity(bell_projector())) is Separability.ENTANGLED
    assert ppt_check(TwoQubitDensity(werner(0.5))) is Separability.ENTANGLED
    assert ppt_check(TwoQubitDensity(werner(0.2))) is Separability.SEPARABLE


# ------------------------------------------------- local-unitary invariance


def test_measures_invariant_under_local_unitaries():
    rng = seeded_rng(313)
    for _ in range(30):
        d_a = int(rng.integers(2, 6))
        d_b = int(rng.integers(2, 6))
        state = random_pure(d_a, d_b, rng)
        rotated = apply_local_unitary(state, random_unitary(d_a, rng), random_unitary(d_b, rng))
        assert np.allclose(hierarchy(rotated), hierarchy(state), atol=1e-8)
        assert np.allclose(invariants(rotated), invariants(state), atol=1e-8)
        for order in (0.5, 1, 2, 3):
            assert abs(renyi_entropy(rotated, order) - renyi_entropy(state, order)) <= 1e-8
