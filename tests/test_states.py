import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enthier.errors import (
    DimensionMismatch,
    DuplicateEntry,
    IndexOutOfRange,
    NegativeCoefficient,
    NonFiniteInput,
    NotNormalized,
    ZeroState,
)
from enthier import measures, states
from enthier.linalg import seeded_rng, seeded_streams
from enthier.measures import hierarchies, hierarchy
from enthier.reference import x_family
from enthier.states import (
    PureState,
    from_amplitudes,
    from_schmidt,
    random_pure,
    schmidt_rank,
    schmidt_spectra,
    schmidt_spectrum,
)
from helpers import NonUnitaryInput, apply_local_unitary, density_matrix, random_unitary, same_state


def test_product_state_from_single_amplitude():
    state = from_amplitudes(2, 2, [(0, 0, 1.0)])
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(state.amplitudes, expected)
    assert np.allclose(schmidt_spectrum(state), [1.0, 0.0])


def test_diagonal_amplitudes_golden_spectrum():
    entries = [(0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.4)), (2, 2, math.sqrt(0.1))]
    state = from_amplitudes(3, 3, entries)
    assert np.allclose(schmidt_spectrum(state), [0.5, 0.4, 0.1], atol=1e-12)


def test_from_amplitudes_norm_gate():
    entries = [(0, 0, 1.0), (0, 1, math.sqrt(1e-3))]  # squared norm 1 + 1e-3
    with pytest.raises(NotNormalized):
        from_amplitudes(2, 2, entries)
    state = from_amplitudes(2, 2, entries, renormalize=True)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_from_amplitudes_small_deviation_renormalized_silently():
    state = from_amplitudes(2, 2, [(0, 0, 1.0 + 5e-7)])
    assert state.amplitudes[0, 0] == 1.0


def test_from_amplitudes_rejects_bad_indices_and_duplicates():
    with pytest.raises(IndexOutOfRange):
        from_amplitudes(2, 2, [(0, 2, 1.0)])
    with pytest.raises(IndexOutOfRange):
        from_amplitudes(2, 2, [(-1, 0, 1.0)])
    with pytest.raises(DuplicateEntry):
        from_amplitudes(2, 2, [(0, 0, 0.5), (0, 0, 0.5)])
    with pytest.raises(ZeroState):
        from_amplitudes(2, 2, [(0, 0, 0.0)])
    with pytest.raises(DimensionMismatch):
        from_amplitudes(0, 2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):  # an entry is a triple, never cut to one
        from_amplitudes(2, 2, [(0, 0, 1.0, 0.0)])


def loop_assembled(dim_a, dim_b, entries):
    """The reference: place the entries one at a time, in input order,
    refusing the first that lies outside or repeats an earlier one."""
    a = np.zeros((dim_a, dim_b), dtype=complex)
    seen = set()
    for i, j, value in entries:
        if not (0 <= i < dim_a and 0 <= j < dim_b):
            return IndexOutOfRange(f"index ({i}, {j}) outside {dim_a}x{dim_b}")
        if (i, j) in seen:
            return DuplicateEntry(f"amplitude ({i}, {j}) supplied twice")
        seen.add((i, j))
        a[i, j] = value
    return a


indices = st.integers(min_value=-2, max_value=4) | st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**70)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    dim_a=st.integers(min_value=1, max_value=4),
    dim_b=st.integers(min_value=1, max_value=4),
    entries=st.lists(st.tuples(indices, indices, st.sampled_from([1.0, -0.5j, 2.0 - 1.0j])), min_size=1, max_size=10),
)
def test_from_amplitudes_refuses_what_a_loop_over_the_entries_refuses(dim_a, dim_b, entries):
    expected = loop_assembled(dim_a, dim_b, entries)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            from_amplitudes(dim_a, dim_b, entries, renormalize=True)
        assert str(raised.value) == str(expected)
    else:
        state = from_amplitudes(dim_a, dim_b, entries, renormalize=True)
        assert np.allclose(state.amplitudes, expected / np.linalg.norm(expected), rtol=0.0, atol=1e-15)


def test_from_schmidt_product_state():
    state = from_schmidt([1.0, 0.0])
    assert state.amplitudes[0, 0] == 1.0
    assert schmidt_rank(schmidt_spectrum(state)) == 1


def test_from_schmidt_three_level_family_member():
    x = 0.3
    state = from_schmidt([math.sqrt(x / 2), math.sqrt(x / 2), math.sqrt(1 - x)])
    assert np.allclose(schmidt_spectrum(state), [0.7, 0.15, 0.15], atol=1e-12)


def test_from_schmidt_golden_dominant_spectrum():
    state = from_schmidt([math.sqrt(0.55), math.sqrt(0.3), math.sqrt(0.15)])
    assert np.allclose(schmidt_spectrum(state), [0.55, 0.3, 0.15], atol=1e-12)


def test_from_schmidt_rejections():
    with pytest.raises(NegativeCoefficient):
        from_schmidt([0.9, -0.1])
    with pytest.raises(NotNormalized):
        from_schmidt([0.5, 0.5])
    with pytest.raises(ZeroState):
        from_schmidt([0.0, 0.0])
    for coefficients in ([], [[0.6, 0.8]]):
        with pytest.raises(DimensionMismatch):
            from_schmidt(coefficients)
    for x in (-0.1, 1.5):  # refused before a root of x/2 or 1 - x is taken
        with pytest.raises(ValueError, match=re.escape(f"family parameter {x!r} outside [0, 1]")):
            x_family(x)
    assert from_schmidt([0.5, 0.5], renormalize=True)


def test_pure_state_invariant_enforced():
    with pytest.raises(NotNormalized):
        PureState(np.ones((2, 2), dtype=complex))
    with pytest.raises(NonFiniteInput):
        PureState(np.array([[np.nan]]))


def test_pure_state_copies_an_outside_array():
    x = np.array([[0.6, 0.0], [0.0, 0.8]], dtype=complex)
    state = PureState(x)
    x[0, 0], x[1, 1] = 0.8, 0.6
    assert state.amplitudes[0, 0] == 0.6 and state.amplitudes[1, 1] == 0.8
    assert x.flags.writeable and not state.amplitudes.flags.writeable
    assert not np.shares_memory(state.amplitudes, x)


@pytest.mark.parametrize(
    "amplitudes, error",
    [
        (np.array([1.0]), DimensionMismatch),
        (np.zeros((0, 0)), DimensionMismatch),
        (np.array([[np.nan, 1.0]]), NonFiniteInput),
        (np.array([[1.0 + 2e-9]]), NotNormalized),
    ],
    ids=["1-D", "empty", "nan", "norm-off-by-2e-9"],
)
def test_pure_state_refuses_outside_arrays(amplitudes, error):
    with pytest.raises(error):
        PureState(amplitudes)


def test_spectrum_round_trip_on_sorted_squares():
    rng = seeded_rng(201)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, size=d)
        coeffs = raw / np.linalg.norm(raw)
        state = from_schmidt(coeffs)
        expected = np.sort(coeffs**2)[::-1]
        assert np.allclose(schmidt_spectrum(state), expected, atol=1e-12)


def test_spectrum_is_descending_unit_sum():
    rng = seeded_rng(202)
    for _ in range(50):
        state = random_pure(int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        lam = schmidt_spectrum(state)
        assert abs(lam.sum() - 1.0) <= 1e-12
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) <= 1e-14)


def stacking_cases(rng):
    """Batches of same-shape amplitude matrices: square d = 1..64, the two
    rectangular shapes 3x7 and 7x3, and rank-deficient states zero-padded
    by rows and columns."""
    for d in range(1, 65):
        yield [random_pure(d, d, rng).amplitudes for _ in range(3)]
    for rows, cols in ((3, 7), (7, 3)):
        yield [random_pure(rows, cols, rng).amplitudes for _ in range(5)]
    for d, pad in ((2, 1), (3, 2), (5, 3), (8, 4)):
        padded = []
        for _ in range(4):
            a = np.zeros((d + pad, d + pad), dtype=complex)
            a[:d, :d] = random_pure(d, d, rng).amplitudes
            padded.append(a)
        yield padded


def test_stacked_spectra_match_batches_of_one_bit_for_bit():
    rng = seeded_rng(211)
    for batch in stacking_cases(rng):
        stacked = [PureState(a) for a in batch]
        spectra = schmidt_spectra(stacked)
        assert spectra.shape == (len(batch), min(batch[0].shape))
        for amplitudes, state, row in zip(batch, stacked, spectra):
            assert state._spectrum.tobytes() == row.tobytes()  # the batch filled the cache
            assert row.tobytes() == schmidt_spectrum(PureState(amplitudes)).tobytes()


def test_stacked_spectra_are_read_only_and_need_one_shape():
    rng = seeded_rng(212)
    spectra = schmidt_spectra([random_pure(2, 2, rng), random_pure(2, 2, rng)])
    with pytest.raises(ValueError):
        spectra[0, 0] = 0.0
    with pytest.raises(DimensionMismatch):
        schmidt_spectra([random_pure(2, 2, rng), random_pure(2, 3, rng)])
    with pytest.raises(DimensionMismatch):
        schmidt_spectra([])


def test_stacked_hierarchies_match_batches_of_one_bit_for_bit(monkeypatch):
    # the stack sizes each kernel call takes, SVD and e_k pass
    sizes = {"svd": [], "levels": []}

    def recorded(key, kernel):
        def call(values):
            sizes[key].append(len(values))
            return kernel(values)

        return call

    monkeypatch.setattr(states, "singular_values_squared", recorded("svd", states.singular_values_squared))
    monkeypatch.setattr(measures, "elementary_symmetric", recorded("levels", measures.elementary_symmetric))

    def stacked_hierarchies(batch):
        sizes["svd"].clear()
        sizes["levels"].clear()
        levels = hierarchies(batch)
        return levels, list(sizes["svd"]), list(sizes["levels"])

    rng = seeded_rng(213)
    for batch in stacking_cases(rng):
        fresh = [PureState(a) for a in batch]
        half = [PureState(a) for a in batch]
        for state in half[::2]:
            schmidt_spectrum(state)
        twice = PureState(batch[0])
        repeated = [twice, PureState(batch[1]), twice]
        # all fresh: the whole batch in one SVD; partly cached: an SVD over the
        # uncached states only; a repeated fresh state is taken once per place
        for stack, svd_sizes in ((fresh, [len(batch)]), (half, [len(half[1::2])]), (repeated, [3])):
            levels, svds, passes = stacked_hierarchies(stack)
            assert (svds, passes) == (svd_sizes, [len(stack)])  # at most one SVD and one e_k pass
            assert levels.shape == (len(stack), min(batch[0].shape))
            with pytest.raises(ValueError):
                levels[0, 0] = 0.0
            for state, row in zip(stack, levels):
                alone = PureState(state.amplitudes)
                # the caches hold the bits of a batch of one, and are read-only
                assert state._spectrum.tobytes() == schmidt_spectrum(alone).tobytes()
                assert row.tobytes() == state._levels.tobytes() == hierarchy(alone).tobytes()
                with pytest.raises(ValueError):
                    state._levels[0] = 0.0


def test_hierarchy_returns_the_cached_read_only_row(monkeypatch):
    rng = seeded_rng(214)
    batch = [random_pure(3, 3, rng) for _ in range(4)]
    schmidt_spectra(batch)

    def no_second_svd(matrices):
        raise AssertionError("a cached spectrum was taken again")

    monkeypatch.setattr(states, "singular_values_squared", no_second_svd)
    levels = hierarchies(batch)
    monkeypatch.undo()
    for state, row in zip(batch, levels):
        assert hierarchy(state) is state._levels
        assert hierarchy(state).tobytes() == row.tobytes()
    with pytest.raises(ValueError):
        levels[0, 0] = 0.0
    with pytest.raises(ValueError):
        hierarchy(batch[0])[0] = 0.0
    lone = random_pure(2, 4, rng)
    with pytest.raises(ValueError):
        hierarchy(lone)[0] = 0.0
    assert hierarchy(lone) is lone._levels


def test_stacked_hierarchies_need_one_shape():
    rng = seeded_rng(215)
    for cached in (False, True):  # a fresh batch, and one whose first state has its spectrum
        for shapes in (((2, 3), (3, 2)), ((3, 3), (2, 2))):
            batch = [random_pure(*shape, rng) for shape in shapes]
            if cached:
                schmidt_spectrum(batch[0])
            message = f"need one or more states of one shape, got shapes {sorted(shapes)}"
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                hierarchies(batch)
    with pytest.raises(DimensionMismatch, match=re.escape("need one or more states of one shape, got shapes []")):
        hierarchies([])


def test_bell_state_spectrum():
    state = from_amplitudes(2, 2, [(0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.5))])
    assert np.allclose(schmidt_spectrum(state), [0.5, 0.5], atol=1e-12)


def test_apply_identity_is_identity():
    state = random_pure(3, 4, seeded_rng(203))
    same = apply_local_unitary(state, np.eye(3), np.eye(4))
    assert same_state(same, state)


def test_apply_local_unitary_preserves_spectrum():
    rng = seeded_rng(204)
    for _ in range(100):
        da = int(rng.integers(1, 6))
        db = int(rng.integers(1, 6))
        state = random_pure(da, db, rng)
        u = random_unitary(da, rng)
        v = random_unitary(db, rng)
        rotated = apply_local_unitary(state, u, v)
        assert np.allclose(
            schmidt_spectrum(rotated), schmidt_spectrum(state), atol=1e-9
        )
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) <= 1e-10


def test_apply_permutation_relabels_basis():
    state = from_amplitudes(2, 2, [(0, 0, 1.0)])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    moved = apply_local_unitary(state, swap, np.eye(2))
    assert moved.amplitudes[1, 0] == 1.0


def test_apply_local_unitary_rejections():
    state = from_amplitudes(2, 2, [(0, 0, 1.0)])
    with pytest.raises(DimensionMismatch):
        apply_local_unitary(state, np.eye(3), np.eye(2))
    with pytest.raises(NonUnitaryInput):
        apply_local_unitary(state, np.eye(2) * 2.0, np.eye(2))


def test_random_pure_trivial_dimensions():
    state = random_pure(1, 1, seeded_rng(205))
    assert np.allclose(schmidt_spectrum(state), [1.0])
    for dim_a, dim_b in ((0, 2), (2, -1)):
        with pytest.raises(DimensionMismatch):
            random_pure(dim_a, dim_b, seeded_rng(205))


def test_random_pure_seed_replay():
    a = random_pure(3, 3, seeded_rng(206))
    b = random_pure(3, 3, seeded_rng(206))
    assert same_state(a, b)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (3, 3), (5, 12), (8, 8), (48, 48)])
@pytest.mark.parametrize("seed", [0, 1, 206, (7, 3), (2**32 - 1, 41)])
def test_random_pure_keeps_the_seed_replay_contract(shape, seed):
    # The contract, replayed here without random_pure: per state, a real then
    # an imaginary standard_normal block of the state's shape, divided by
    # np.linalg.norm, two states taken one after the other from one stream.
    rng, replay = seeded_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        z = replay.standard_normal(shape) + 1j * replay.standard_normal(shape)
        expected = z / np.linalg.norm(z)
        amplitudes = random_pure(*shape, rng).amplitudes
        assert amplitudes.shape == shape and amplitudes.dtype == expected.dtype
        assert amplitudes.tobytes() == expected.tobytes()


def test_random_pure_mean_two_level_concurrence_bounded():
    rng = seeded_rng(207)
    mean_c2 = np.mean([hierarchy(random_pure(3, 3, rng))[1] for _ in range(1000)])
    assert 0.0 < mean_c2 < 1.0 / 3.0  # e_2 peaks at the uniform spectrum


# Sizes and seed fixed before any result was seen. Levels 2..d and the
# entropy at each d make 71 checks; |z| <= 4.5 bounds them all (Bonferroni).
HAAR_SIZES = [(3, 40000), (8, 10000), (12, 4000), (48, 400)]


def haar_law_z_scores(draw) -> dict:
    """z of the mean of each level C_k, k >= 2, against the Haar mean
    C(d,k) d!/(d-k)! (d^2-1)!/(d^2+k-1)!, and of the mean entropy (nats)
    against Page's formula, keyed by (d, name), for d x d states drawn by
    ``draw(d, d, rng)`` as scan draws them: two per stream of seed 0."""
    scores = {}
    for d, count in HAAR_SIZES:
        drawn = [draw(d, d, rng) for rng in seeded_streams(0, 0, count // 2) for _ in (0, 1)]
        levels, spectra = hierarchies(drawn), schmidt_spectra(drawn)
        samples, expected = {}, {}
        for k in range(2, d + 1):
            samples[f"C{k}"] = levels[:, k - 1]
            expected[f"C{k}"] = math.comb(d, k) * math.perm(d, k) / math.perm(d * d + k - 1, k)
        logs = np.log(spectra, where=spectra > 0, out=np.zeros_like(spectra))
        samples["entropy"] = -(spectra * logs).sum(axis=1)
        expected["entropy"] = sum(1 / j for j in range(d + 1, d * d + 1)) - (d - 1) / (2 * d)
        for name, values in samples.items():
            scores[d, name] = (values.mean() - expected[name]) / (values.std(ddof=1) / math.sqrt(values.size))
    return scores


def test_scan_sampler_follows_the_haar_law():
    scores = haar_law_z_scores(random_pure)
    assert len(scores) == 71
    worst = max(scores, key=lambda key: abs(scores[key]))
    assert abs(scores[worst]) <= 4.5, (worst, scores[worst])


def test_haar_law_check_refuses_a_real_gaussian_sampler():
    def real_gaussian(dim_a, dim_b, rng):
        draws = rng.standard_normal((dim_a, dim_b))
        return PureState(draws / np.linalg.norm(draws))

    assert max(abs(z) for z in haar_law_z_scores(real_gaussian).values()) > 4.5


def test_schmidt_rank_counts():
    assert schmidt_rank([1.0, 0.0, 0.0]) == 1
    assert schmidt_rank([0.5, 0.5, 0.0]) == 2
    assert schmidt_rank([0.6, 0.2, 0.2]) == 3
    # the rank counts spectrum values above RANK_TOL, coefficients above 1e-5
    assert schmidt_rank([1 - 1e-10, 1e-10]) == 1
    assert schmidt_rank([1 - 2e-10, 2e-10]) == 2


def test_constructed_states_have_unit_norm():
    rng = seeded_rng(208)
    for _ in range(25):
        state = random_pure(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9


def test_density_matrix_is_projector():
    state = random_pure(2, 3, seeded_rng(209))
    rho = density_matrix(state)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_amplitudes_are_read_only():
    state = random_pure(2, 2, seeded_rng(210))
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 0.0
