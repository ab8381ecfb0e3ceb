"""Bipartite pure states as unit-norm complex amplitude matrices.

A ``PureState`` carries three read-only memos, each filled on first use:
``_spectrum`` by ``schmidt_spectra``, and ``_levels`` and ``_power_sums``
by ``measures.hierarchies`` and ``measures.invariants``. Every measure of a
state is a function of the state alone, and the memos make a repeated
call cost a lookup.
"""

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
from .linalg import singular_values_squared

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
    representable. The scaled norm is formed as ``np.linalg.norm`` forms
    it, one dot per real part. Within _RENORM_SKIP_TOL of 1 the values
    come back as given.
    """
    is_complex = values.dtype.kind == "c"
    parts = values.view(float) if is_complex else values  # a complex array as its real and imaginary parts
    peak = float(abs(parts).max())
    if not math.isfinite(peak):
        raise NonFiniteInput(f"{what} contain non-finite entries")
    if peak == 0.0:
        raise ZeroState(f"all {what} are zero")
    scale = math.ldexp(1.0, min(max(math.frexp(peak)[1], -1021), 1023))
    scaled = values / scale
    flat = scaled.reshape(-1)
    if is_complex:
        re, im = flat.real, flat.imag  # strided views, the operands norm's dot takes
        scaled_norm = math.sqrt(re.dot(re) + im.dot(im))
    else:
        scaled_norm = math.sqrt(flat.dot(flat))
    norm = scale * scaled_norm
    if not renormalize and abs(norm - 1.0) > NORM_GATE:
        raise NotNormalized(f"norm {norm!r} deviates from 1 beyond 1e-6; pass renormalize")
    if abs(norm - 1.0) > _RENORM_SKIP_TOL:
        return scaled / scaled_norm
    return values


@dataclass(frozen=True, eq=False)
class PureState:
    """A bipartite pure state, stored as its amplitude matrix.

    Row index addresses the first subsystem, column index the second, so
    entry (i, j) is the amplitude on the product basis vector |ij>. Instances
    are immutable and compare by identity; ``PureState(a)`` copies ``a`` and
    checks its unit norm.
    """

    amplitudes: np.ndarray
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False)
    _levels: np.ndarray | None = field(default=None, init=False, repr=False)
    _power_sums: np.ndarray | None = field(default=None, init=False, repr=False)

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
        return state  # its _spectrum, _levels and _power_sums are the class defaults, None

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]


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
    if (c < 0.0).any():
        raise NegativeCoefficient(f"coefficient {float(c.min())!r} is negative")
    c = _normalized(c, renormalize, "coefficients")
    a = np.zeros((c.size, c.size), dtype=complex)
    a.reshape(-1)[:: c.size + 1] = c  # the diagonal, through a strided flat view
    return PureState._owned(a)


def schmidt_spectra(states) -> np.ndarray:
    """Schmidt spectra of one or more same-shape states, as an (n, d) array
    with d = min(dim_a, dim_b): each row descending, renormalized to unit sum.

    One stacked SVD serves the states that have no cached spectrum, and
    each of its rows is stored as that state's cached spectrum, so later
    ``schmidt_spectrum`` calls on these states do no linear algebra. A
    batch with no cached spectrum, such as a ``scan`` chunk, gets that
    SVD's stack back as it is; any other batch gets a stack of every
    state's cached row. Rows have the bits of a batch of one.
    """
    states = list(states)
    shapes = {state.amplitudes.shape for state in states}
    if len(shapes) != 1:
        raise DimensionMismatch(f"need one or more states of one shape, got shapes {sorted(shapes)}")
    uncached = [state for state in states if state._spectrum is None]
    if uncached:
        values = singular_values_squared(np.array([state.amplitudes for state in uncached]))
        # Each sum is a squared norm, which PureState holds within ~2e-9 of 1.
        values /= values.sum(axis=1, keepdims=True)
        values.setflags(write=False)  # rows are views, so the cached spectra are read-only too
        for state, row in zip(uncached, values):
            object.__setattr__(state, "_spectrum", row)
        if len(uncached) == len(states):
            return values
    spectra = np.array([state._spectrum for state in states])
    spectra.setflags(write=False)
    return spectra


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
    """Number of spectrum values lambda = c^2 above RANK_TOL (1e-10), which
    is the number of Schmidt coefficients c above 1e-5."""
    return int(np.sum(np.asarray(spectrum, dtype=float) > RANK_TOL))


def random_pure(dim_a: int, dim_b: int, rng: np.random.Generator) -> PureState:
    """Haar-induced random state: normalized complex Gaussian amplitudes.

    One draw takes the real block, then the imaginary block, from ``rng``,
    and the norm is formed as ``np.linalg.norm`` forms it, so the amplitudes
    have the bits of two (dim_a, dim_b) draws divided by that norm.
    """
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch(f"dimensions must be positive, got {dim_a}x{dim_b}")
    try:
        draws = rng.standard_normal((2, dim_a, dim_b))
    except ValueError as exc:  # a shape numpy cannot address, refused before drawing
        raise MemoryError(f"{dim_a}x{dim_b} amplitudes: {exc}") from None
    z = np.empty((dim_a, dim_b), dtype=complex)
    z.real = draws[0]
    z.imag = draws[1]
    flat = z.reshape(-1)
    re, im = flat.real, flat.imag  # strided views, the operands norm's dot takes
    z /= math.sqrt(re.dot(re) + im.dot(im))
    return PureState._owned(z)


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
    "random_pure",
]
