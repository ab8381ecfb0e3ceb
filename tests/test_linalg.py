import itertools
import math

import numpy as np
import pytest

from enthier.errors import (
    NonFiniteInput,
    NonSquareMatrix,
    NoSignChange,
)
from enthier.linalg import (
    bisect_root,
    elementary_symmetric,
    minor_sum,
    random_unitary,
    seeded_rng,
    singular_values_squared,
)


# ---------------------------------------------------------------- oracles


def cofactor_determinant(m):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0j
    for col in range(n):
        sub = np.delete(np.delete(m, 0, axis=0), col, axis=1)
        total += (-1) ** col * m[0, col] * cofactor_determinant(sub)
    return total


def enumerated_elementary_symmetric(values, k):
    """Independent e_k oracle: explicit sum over all k-subsets."""
    return sum(math.prod(combo) for combo in itertools.combinations(values, k))


def loop_elementary_symmetric(values, k):
    """The scalar form of the e_k recurrence, one level update at a time."""
    e = [1.0] + [0.0] * k
    for value in values:
        for j in range(k, 0, -1):
            e[j] += value * e[j - 1]
    return e[k]


def random_complex(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# -------------------------------------------------------- singular values


def test_singular_values_bell_diagonal():
    a = np.diag([1.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(singular_values_squared(a), [0.5, 0.5], atol=1e-14)


def test_singular_values_golden_diagonal():
    a = np.diag([math.sqrt(0.6), math.sqrt(0.2), math.sqrt(0.2)])
    assert np.allclose(singular_values_squared(a), [0.6, 0.2, 0.2], atol=1e-12)


def test_singular_values_rectangular_two_sided_gram():
    rng = seeded_rng(104)
    m = random_complex(4, 3, rng)
    left = singular_values_squared(m)
    right = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
    assert left.size == 3
    assert np.allclose(left, right, atol=1e-10)


def test_singular_values_nonnegative():
    rng = seeded_rng(105)
    for _ in range(20):
        m = random_complex(int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        assert np.all(singular_values_squared(m) >= 0.0)


def test_singular_values_overflowing_gram_is_non_finite():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
        singular_values_squared([[1e200, 1e200], [1e200, 1e200]])


def test_singular_values_of_a_stack_keep_shape_and_checks():
    rng = seeded_rng(106)
    stack = np.stack([random_complex(2, 3, rng) for _ in range(4)]).reshape(2, 2, 2, 3)
    squares = singular_values_squared(stack)
    assert squares.shape == (2, 2, 2)
    assert np.array_equal(squares[1, 0], singular_values_squared(stack[1, 0]))
    with pytest.raises(NonSquareMatrix):
        singular_values_squared([0.5, 0.5])
    stack[1, 1, 0, 2] = np.inf
    with pytest.raises(NonFiniteInput):
        singular_values_squared(stack)


# ------------------------------------------------- elementary symmetric


def test_elementary_symmetric_golden():
    levels = elementary_symmetric([0.5, 0.4, 0.1])
    assert levels.shape == (3,)
    assert abs(levels[0] - 1.0) <= 1e-15
    assert abs(levels[1] - 0.29) <= 1e-15
    assert abs(levels[2] - 0.020) <= 1e-15


def test_elementary_symmetric_annihilating_zero():
    assert elementary_symmetric([0.3, 0.7, 0.0])[2] == 0.0
    assert elementary_symmetric([0.2, 0.0, 0.5, 0.3])[3] == 0.0


def test_elementary_symmetric_against_enumeration():
    rng = seeded_rng(109)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        values = rng.uniform(-1.0, 1.0, size=n)
        levels = elementary_symmetric(values)
        assert levels.shape == (n,)
        for k in range(1, n + 1):
            expected = enumerated_elementary_symmetric(list(values), k)
            assert abs(levels[k - 1] - expected) <= 1e-12


def test_elementary_symmetric_bit_identical_to_scalar_recurrence():
    rng = seeded_rng(114)
    for n in (2, 3, 8, 12, 48):
        for _ in range(5):
            values = rng.dirichlet(np.ones(n))
            levels = elementary_symmetric(values)
            for k in range(1, n + 1):
                assert levels[k - 1] == loop_elementary_symmetric(values, k)


# -------------------------------------------------------------- minor sums


def test_minor_sum_k1_is_squared_frobenius():
    rng = seeded_rng(110)
    m = random_complex(3, 4, rng)
    assert abs(minor_sum(m)[0] - np.linalg.norm(m) ** 2) <= 1e-12


def test_minor_sum_golden_diagonal():
    a = np.diag([math.sqrt(0.5), math.sqrt(0.4), math.sqrt(0.1)])
    assert abs(minor_sum(a)[1] - 0.29) <= 1e-12


def test_cauchy_binet_identity():
    rng = seeded_rng(111)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = random_complex(rows, cols, rng) / math.sqrt(rows * cols)
        levels = elementary_symmetric(singular_values_squared(m))
        sums = minor_sum(m)
        assert sums.shape == levels.shape
        assert np.max(np.abs(sums - levels)) <= 1e-9


@pytest.mark.parametrize("shape", [(3, 400), (400, 3), (12, 30)])
def test_minor_sum_matches_spectral_route_per_level_on_rectangular_input(shape):
    m = random_complex(*shape, seeded_rng(shape)) / math.sqrt(shape[0] * shape[1])
    levels = elementary_symmetric(singular_values_squared(m))
    assert np.max(np.abs(minor_sum(m) - levels) / levels) <= 1e-12


def test_minor_sum_of_square_matrix_is_squared_determinant():
    rng = seeded_rng(107)
    for _ in range(25):
        dim = int(rng.integers(1, 7))
        m = random_complex(dim, dim, rng) / math.sqrt(dim)
        expected = abs(cofactor_determinant(m)) ** 2
        assert abs(minor_sum(m)[dim - 1] - expected) <= 1e-10 * max(1.0, expected)


def test_minor_sum_matches_explicit_minor_enumeration():
    # The definition itself: every k x k minor, by cofactor expansion.
    rng = seeded_rng(112)
    for rows, cols in [(1, 4), (3, 3), (4, 2), (4, 5)]:
        m = random_complex(rows, cols, rng) / math.sqrt(rows * cols)
        expected = [
            sum(
                abs(cofactor_determinant(m[np.ix_(beta, gamma)])) ** 2
                for beta in itertools.combinations(range(rows), k)
                for gamma in itertools.combinations(range(cols), k)
            )
            for k in range(1, min(rows, cols) + 1)
        ]
        assert np.allclose(minor_sum(m), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(13, 13), (13, 14), (48, 48)], ids=["13x13", "13x14", "48x48"])
def test_minor_sum_matches_spectral_route_per_level_above_twelve(shape):
    m = random_complex(*shape, seeded_rng(shape)) / math.sqrt(shape[0] * shape[1])
    levels = elementary_symmetric(singular_values_squared(m))
    assert np.all(np.abs(minor_sum(m) - levels) <= 1e-12 * levels)


@pytest.mark.parametrize("pivot", [5e-324j, -5e-324, 1e-310 + 1e-310j], ids=["imaginary", "real", "complex"])
def test_minor_sum_reflects_a_column_with_a_subnormal_pivot(pivot):
    # 1 / |pivot| overflows, so the reflector's phase must not be taken through it.
    m = np.array([[pivot, 0.48j, 0.0], [-0.64, 0.0, 0.6]]).T
    levels = elementary_symmetric(singular_values_squared(m))
    assert np.allclose(minor_sum(m), levels, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_minor_sum_of_empty_matrix_has_no_levels(shape):
    assert minor_sum(np.zeros(shape)).shape == (0,)


# ---------------------------------------------------------- random draws


def test_random_unitary_scalar_is_phase():
    u = random_unitary(1, seeded_rng(42))
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_random_unitary_invariant():
    rng = seeded_rng(113)
    for dim in (1, 2, 3, 5, 8):
        u = random_unitary(dim, rng)
        assert np.linalg.norm(u @ u.conj().T - np.eye(dim)) <= 1e-10


def test_random_unitary_seed_replay():
    first = random_unitary(3, seeded_rng(42))
    second = random_unitary(3, seeded_rng(42))
    assert np.array_equal(first, second)


def test_seeded_rng_bit_identical_streams():
    a = seeded_rng(77).standard_normal(1000)
    b = seeded_rng(77).standard_normal(1000)
    assert np.array_equal(a, b)


# -------------------------------------------------------------- bisection


def test_bisect_linear():
    assert abs(bisect_root(lambda x: x - 0.5, 0.0, 1.0, 1e-12) - 0.5) <= 1e-11


def test_bisect_unit_entropy_equation():
    f = lambda x: x**x * (2.0 * (1.0 - x)) ** (1.0 - x) - 1.0
    root = bisect_root(f, 0.01, 0.49, 1e-6)
    assert abs(root - 0.2271) <= 5e-4


def test_bisect_quadratic_root_third():
    root = bisect_root(lambda x: (3.0 * x - 1.0) * (x - 1.0), 0.0, 0.9, 1e-9)
    assert abs(root - 1.0 / 3.0) <= 1e-8


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0, 1e-6)


def test_bisect_endpoint_root():
    assert bisect_root(lambda x: x, 0.0, 1.0, 1e-6) == 0.0
