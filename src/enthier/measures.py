"""Entanglement measures for bipartite pure states and two-qubit densities.

The concurrence hierarchy C_1..C_d (elementary symmetric polynomials of
the Schmidt spectrum) is computed along three routes that share no
numerics, so each cross-checks the others:

* ``hierarchy``: the squared singular values of the amplitude matrix
  (one LAPACK SVD), then the e_k recurrence;
* ``hierarchy_via_minors``: squared k x k minors of the amplitude matrix
  (Cauchy-Binet), summed on a bidiagonal form from hand-written
  Householder steps (no LAPACK factorization, no Gram matrix);
* ``hierarchy_via_invariants``: traces of powers of the Gram matrix (BLAS
  products, no eigensolver), then Newton's identities. It loses relative
  accuracy on the top levels as d grows, so it refuses d above
  NEWTON_DIM_LIMIT.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import (
    ConcurrenceOutOfRange,
    DimensionMismatch,
    DimensionTooLargeForNewton,
    InvalidDensity,
    NonPositiveOrder,
)
from .linalg import elementary_symmetric, minor_sum, singular_values_squared
from .states import PureState, schmidt_spectrum

DENSITY_TRACE_TOL = 1e-9
DENSITY_HERMITIAN_TOL = 1e-12
DENSITY_POSITIVITY_TOL = 1e-10
PPT_TOL = 1e-10
# Largest d at which Newton's identities on trace power sums stay within a
# few 1e-6 relative error of the spectral route: the worst level over 200
# Haar-random states reaches 3.9e-6 at d = 8 and 1.8e-5 at d = 9.
NEWTON_DIM_LIMIT = 8

# Squared singular values of sqrt(rho) S sqrt(rho)* below this are dust.
# The SVD still needs the floor: ``_psd_sqrt`` turns eigenvalue dust of
# rho (~1e-16) into roots of ~1e-8, which leave squares of ~1e-17 on
# product states, and so lambdas of ~3e-9 in a concurrence that is 0.
_LAMBDA_SQ_FLOOR = 1e-13

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: The two-qubit spin-flip conjugation matrix sigma_y (x) sigma_y.
SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real
SPIN_FLIP.setflags(write=False)


class Separability(Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"


def hierarchy(state: PureState) -> np.ndarray:
    """C_k = e_k(schmidt spectrum) for k = 1..d, d = min(dim_a, dim_b),
    all levels from one pass of the e_k recurrence."""
    return elementary_symmetric(schmidt_spectrum(state))


def hierarchy_via_minors(state: PureState) -> np.ndarray:
    """The hierarchy as squared minor sums of the amplitude matrix.

    C_k = sum over k-subsets beta, gamma of |det A(beta, gamma)|^2, which
    agrees with the spectral route by Cauchy-Binet; ``minor_sum`` sums them
    on a bidiagonal B = U^dagger A V, whose nonzero minors are monomials.
    """
    return minor_sum(state.amplitudes)


def invariants(state: PureState) -> np.ndarray:
    """Local-unitary invariants I_k = Tr G^(k+1) / (Tr G)^(k+1), k = 0..d-1.

    G is the smaller Gram matrix of the amplitudes, so I_k equals the
    power sum sum_i lambda_i^(k+1) of the Schmidt spectrum. Computed from
    repeated matrix products and traces, without an eigensolver.
    """
    a = state.amplitudes
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    gram = gram / np.trace(gram).real
    power = gram
    values = [np.trace(power).real]
    for _ in range(1, gram.shape[0]):
        power = power @ gram
        values.append(np.trace(power).real)
    return np.array(values)


def hierarchy_via_invariants(state: PureState, power_sums: np.ndarray | None = None) -> np.ndarray:
    """The hierarchy reconstructed from power sums via Newton's identities.

    With p_m = sum_i lambda_i^m the recursion is
    k e_k = sum_{m=1}^{k} (-1)^(m-1) e_{k-m} p_m; the three-level case
    reduces to C_3 = (1 - 3 p_2 + 2 p_3) / 6. The alternating sum cancels
    badly on the small top levels, so min dimensions above
    NEWTON_DIM_LIMIT are refused. Levels that rounding leaves below 0 are
    zeroed. ``power_sums``, the state's ``invariants`` if the caller has
    them already, saves taking them again.
    """
    d = min(state.dim_a, state.dim_b)
    if d > NEWTON_DIM_LIMIT:
        raise DimensionTooLargeForNewton(
            f"newton route: min dimension {d} exceeds {NEWTON_DIM_LIMIT}"
        )
    if power_sums is None:
        power_sums = invariants(state)  # p_m = power_sums[m - 1]
    e = np.zeros(d + 1)
    e[0] = 1.0
    for k in range(1, d + 1):
        acc = 0.0
        for m in range(1, k + 1):
            acc += (-1.0) ** (m - 1) * e[k - m] * power_sums[m - 1]
        e[k] = acc / k
    e[e < 0.0] = 0.0
    return e[1:]


def renyi_entropy(state: PureState, order: float) -> float:
    """Renyi entropy of the reduced state, base-2 logarithms.

    Order 1 is the von Neumann limit -sum lambda log2 lambda; infinity is
    the min-entropy -log2 lambda_max. Near 1 the log of the power sum is a
    log1p of same-signed expm1 terms, which does not cancel as 1/|1-order|;
    elsewhere the sum is over lambda / lambda_max, so it cannot underflow.
    """
    if not order > 0:
        raise NonPositiveOrder(f"order must be positive, got {order}")
    lam = schmidt_spectrum(state)
    lam = lam[lam > 0.0]
    if order == 1:
        value = -np.sum(lam * np.log2(lam))
    elif order == math.inf:
        value = -np.log2(lam[0])
    elif abs(order - 1.0) < 0.5 and abs(order - 1.0) * np.max(np.abs(np.log(lam))) <= 1.0:
        # |(order - 1) ln lambda| <= 1 keeps log1p's argument above e^-1 - 1; 0.5 and 2 use the form below
        deviation = np.sum(lam * np.expm1((order - 1.0) * np.log(lam))) / np.sum(lam)
        value = np.log1p(deviation) / ((1.0 - order) * math.log(2.0))
    else:
        top = lam[0]
        scaled_sum = np.sum((lam / top) ** order)
        value = order / (1.0 - order) * np.log2(top) + np.log2(scaled_sum) / (1.0 - order)
    return max(0.0, float(value))  # a product state gives -0.0


def eof_pure(state: PureState) -> float:
    """Entanglement of formation of a pure state, in bits: the von
    Neumann entropy of the reduced density matrix."""
    return renyi_entropy(state, 1)


def _two_level(state: PureState, levels: np.ndarray | None) -> tuple[int, float]:
    """d and C_2 = e_2(lambda), 0 at d = 1, from ``levels``, the state's
    ``hierarchy``, which is taken here when the caller does not have it."""
    levels = hierarchy(state) if levels is None else levels
    return levels.size, (float(levels[1]) if levels.size > 1 else 0.0)


def af_concurrence(state: PureState, levels: np.ndarray | None = None) -> float:
    """Generalized two-level concurrence sqrt(2d/(d-1) C_2) (Albeverio and
    Fei), normalized to hit 1 on maximally entangled states.

    C_2 = e_2(lambda) sums nonnegative products, so it keeps its relative
    accuracy near product states, where 1 - sum lambda^2 = 2 C_2 cancels.
    ``levels`` is the state's ``hierarchy``, if the caller has it already.
    """
    d, c2 = _two_level(state, levels)
    if d == 1:
        return 0.0
    return math.sqrt(d / (d - 1)) * math.sqrt(2.0 * c2)


def rungta_concurrence(state: PureState, levels: np.ndarray | None = None) -> float:
    """Universal-inverter concurrence 2 sqrt(C_2) (Rungta et al.), which is
    sqrt(2 (1 - sum lambda^2)) taken without its cancellation. ``levels``
    is the state's ``hierarchy``, if the caller has it already."""
    return 2.0 * math.sqrt(_two_level(state, levels)[1])


def require_two_qubit_density(rho) -> np.ndarray:
    """Validate a 4x4 density matrix: Hermitian, unit trace, positive."""
    a = np.asarray(rho, dtype=complex)
    if a.shape != (4, 4):
        raise InvalidDensity(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidDensity("density contains non-finite entries")
    if np.max(np.abs(a - a.conj().T)) > DENSITY_HERMITIAN_TOL:
        raise InvalidDensity("density is not Hermitian within 1e-12")
    trace = complex(np.trace(a)).real
    if abs(trace - 1.0) > DENSITY_TRACE_TOL:
        raise InvalidDensity(f"trace {trace!r} deviates from 1 beyond 1e-9")
    smallest = np.linalg.eigvalsh(a)[0]
    if smallest < -DENSITY_POSITIVITY_TOL:
        raise InvalidDensity(f"negative eigenvalue {smallest:.3e}")
    return a


def _psd_sqrt(matrix) -> np.ndarray:
    """Square root of a density that ``require_two_qubit_density`` has
    accepted, so negative eigenvalues are rounding dust and are zeroed."""
    values, vectors = np.linalg.eigh(matrix)
    values[values < 0.0] = 0.0
    roots = np.sqrt(values)
    return (vectors * roots) @ vectors.conj().T


def spin_flip_lambdas(rho) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho rho~, where rho~
    = S rho* S is the spin-flipped conjugate of rho and S = SPIN_FLIP.

    These are the singular values of M = sqrt(rho) S sqrt(rho)*: M M^dagger
    is sqrt(rho) rho~ sqrt(rho), which shares the spectrum of rho rho~.
    """
    root = _psd_sqrt(require_two_qubit_density(rho))
    squares = singular_values_squared(root @ SPIN_FLIP @ root.conj())
    squares[squares < _LAMBDA_SQ_FLOOR] = 0.0
    return np.sqrt(squares)


def wootters_concurrence(rho) -> float:
    """Two-qubit mixed-state concurrence max{0, l1 - l2 - l3 - l4}."""
    lam = spin_flip_lambdas(rho)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def wootters_pure(state: PureState) -> float:
    """Two-qubit pure-state concurrence 2 |det A|."""
    if (state.dim_a, state.dim_b) != (2, 2):
        raise DimensionMismatch(f"need a 2x2 state, got {state.dim_a}x{state.dim_b}")
    return float(2.0 * abs(np.linalg.det(state.amplitudes)))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a two-qubit state from its
    concurrence: h((1 + sqrt(1 - C^2)) / 2), in bits."""
    if not 0.0 <= c <= 1.0:
        raise ConcurrenceOutOfRange(f"concurrence {c!r} outside [0, 1]")
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def partial_transpose_b(rho) -> np.ndarray:
    """Partial transpose of a two-qubit density over the second qubit."""
    a = np.asarray(rho, dtype=complex)
    return a.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_check(rho) -> Separability:
    """Peres-Horodecki test; necessary and sufficient for two qubits."""
    a = require_two_qubit_density(rho)
    smallest = np.linalg.eigvalsh(partial_transpose_b(a))[0]
    return Separability.ENTANGLED if smallest < -PPT_TOL else Separability.SEPARABLE


__all__ = [
    "NEWTON_DIM_LIMIT",
    "SPIN_FLIP",
    "Separability",
    "hierarchy",
    "hierarchy_via_minors",
    "hierarchy_via_invariants",
    "invariants",
    "renyi_entropy",
    "eof_pure",
    "af_concurrence",
    "rungta_concurrence",
    "require_two_qubit_density",
    "spin_flip_lambdas",
    "wootters_concurrence",
    "wootters_pure",
    "binary_entropy",
    "eof_from_concurrence",
    "partial_transpose_b",
    "ppt_check",
]
