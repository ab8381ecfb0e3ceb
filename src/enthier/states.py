"""Bipartite pure states as unit-norm complex amplitude matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEntry,
    IndexOutOfRange,
    NegativeCoefficient,
    NonFiniteInput,
    NotNormalized,
    ZeroState,
)
from .linalg import require_unitary, singular_values_squared

NORM_INVARIANT_TOL = 1e-9
NORM_GATE = 1e-6  # constructor acceptance without an explicit renormalize
RANK_TOL = 1e-10

# Below this deviation, dividing by the norm is pure rounding noise and
# would break bit-exact round trips through state files.
_RENORM_SKIP_TOL = 1e-12


def _normalized(values: np.ndarray, renormalize: bool, what: str) -> np.ndarray:
    """``values`` divided by their norm, after the zero and norm-gate checks.

    The norm is taken on values / scale, scale the power of two just above
    max |entry|, kept within [2^-1021, 2^1023] so that scale and the
    reciprocal numpy divides a complex array by are both finite: the
    scaled squares cannot overflow or all underflow, and power-of-two
    scaling is exact, so dividing by scale, then by the scaled norm, gives
    the bits of dividing by the plain norm whenever that norm is
    representable. Within _RENORM_SKIP_TOL of 1 the values come back as
    given.
    """
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
    if abs(norm - 1.0) > _RENORM_SKIP_TOL:
        return values / scale / scaled_norm
    return values


@dataclass(frozen=True, eq=False)
class PureState:
    """A bipartite pure state, stored as its amplitude matrix.

    Row index addresses the first subsystem, column index the second, so
    entry (i, j) is the amplitude on the product basis vector |ij>. Instances
    are immutable; ``PureState(a)`` copies ``a`` and checks its unit norm.
    """

    amplitudes: np.ndarray
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch(f"amplitude matrix must be 2-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > NORM_INVARIANT_TOL:
            raise NotNormalized(f"Frobenius norm {norm!r} deviates from 1 beyond 1e-9")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def _owned(cls, a: np.ndarray) -> PureState:
        """Wrap ``a``, a 2-D complex unit-norm array that the package has just
        built, checked and alone refers to, uncopied: a state is checked once."""
        a.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", a)
        return state  # its _spectrum is the class default, None

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return self.amplitudes.shape == other.amplitudes.shape and bool(
            np.array_equal(self.amplitudes, other.amplitudes)
        )

    __hash__ = object.__hash__


def from_amplitudes(dim_a: int, dim_b: int, entries, renormalize: bool = False) -> PureState:
    """Assemble a state from sparse (i, j, amplitude) triples.

    The triples are checked in one loop, in input order: the first that lies
    outside the matrix or repeats an earlier position is refused, and an
    entry that is not a triple raises ValueError. None is placed before the
    loop ends, so a negative index cannot wrap around.

    The result is normalized to unit norm (up to rounding); without
    ``renormalize`` the input norm may deviate from 1 by at most 1e-6.
    """
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch(f"dimensions must be positive, got {dim_a}x{dim_b}")
    try:
        a = np.zeros((dim_a, dim_b), dtype=complex)
    except ValueError as exc:  # a shape numpy cannot address, refused before allocating
        raise MemoryError(f"{dim_a}x{dim_b} amplitudes: {exc}") from None
    placed = {}  # flat position -> amplitude
    for i, j, value in entries:
        if not (0 <= i < dim_a and 0 <= j < dim_b):
            raise IndexOutOfRange(f"index ({i}, {j}) outside {dim_a}x{dim_b}")
        position = i * dim_b + j
        if position in placed:
            raise DuplicateEntry(f"amplitude ({i}, {j}) supplied twice")
        placed[position] = value
    a.reshape(-1)[list(placed)] = list(placed.values())
    return PureState._owned(_normalized(a, renormalize, "amplitudes"))


def from_schmidt(coefficients, renormalize: bool = False) -> PureState:
    """Diagonal state sum_i c_i |ii> from nonnegative Schmidt coefficients."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise DimensionMismatch("coefficients must be a non-empty 1-D sequence")
    if np.any(c < 0.0):
        raise NegativeCoefficient(f"coefficient {c.min()!r} is negative")
    c = _normalized(c, renormalize, "coefficients")
    a = np.zeros((c.size, c.size), dtype=complex)
    np.fill_diagonal(a, c.astype(complex))
    return PureState._owned(a)


def schmidt_spectra(states) -> np.ndarray:
    """Schmidt spectra of one or more same-shape states, as an (n, d) array
    with d = min(dim_a, dim_b): each row descending, renormalized to unit sum.

    One stacked SVD serves the whole batch, and each row is stored as that
    state's cached spectrum, so later ``schmidt_spectrum`` calls on these
    states do no linear algebra. Rows have the bits of a batch of one.
    """
    states = list(states)
    shapes = {state.amplitudes.shape for state in states}
    if len(shapes) != 1:
        raise DimensionMismatch(f"need one or more states of one shape, got shapes {sorted(shapes)}")
    values = singular_values_squared(np.array([state.amplitudes for state in states]))
    # Each sum is a squared norm, which PureState holds within ~2e-9 of 1.
    values /= values.sum(axis=1, keepdims=True)
    values.setflags(write=False)  # rows are views, so the cached spectra are read-only too
    for state, row in zip(states, values):
        object.__setattr__(state, "_spectrum", row)
    return values


def schmidt_spectrum(state: PureState) -> np.ndarray:
    """Descending eigenvalues of the reduced density matrix, renormalized
    to unit sum. Length is min(dim_a, dim_b).

    The spectrum is cached on the state; an uncached state is a batch of
    one for ``schmidt_spectra``, so every spectrum comes from one kernel.
    """
    cached = state._spectrum
    if cached is not None:
        return cached
    return schmidt_spectra([state])[0]


def schmidt_rank(spectrum) -> int:
    """Number of Schmidt coefficients above RANK_TOL."""
    return int(np.sum(np.asarray(spectrum, dtype=float) > RANK_TOL))


def apply_local_unitary(state: PureState, u, v) -> PureState:
    """Act with U (x) V: the amplitude matrix maps to U^T A V."""
    uu = require_unitary(u)
    vv = require_unitary(v)
    if uu.shape[0] != state.dim_a or vv.shape[0] != state.dim_b:
        raise DimensionMismatch(
            f"unitaries {uu.shape[0]}/{vv.shape[0]} do not match state {state.dim_a}x{state.dim_b}"
        )
    return PureState(uu.T @ state.amplitudes @ vv)


def random_pure(dim_a: int, dim_b: int, rng: np.random.Generator) -> PureState:
    """Haar-induced random state: normalized complex Gaussian amplitudes."""
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch(f"dimensions must be positive, got {dim_a}x{dim_b}")
    try:
        z = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
    except ValueError as exc:  # a shape numpy cannot address, refused before drawing
        raise MemoryError(f"{dim_a}x{dim_b} amplitudes: {exc}") from None
    return PureState._owned(z / np.linalg.norm(z))


def density_matrix(state: PureState) -> np.ndarray:
    """Projector |state><state| in the product basis (row-major |ij>)."""
    vec = state.amplitudes.reshape(-1)
    return np.outer(vec, vec.conj())


__all__ = [
    "NORM_INVARIANT_TOL",
    "NORM_GATE",
    "RANK_TOL",
    "PureState",
    "from_amplitudes",
    "from_schmidt",
    "schmidt_spectra",
    "schmidt_spectrum",
    "schmidt_rank",
    "apply_local_unitary",
    "random_pure",
    "density_matrix",
]
