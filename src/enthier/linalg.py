"""Dense complex linear algebra for small matrices, on numpy LAPACK and BLAS.

The three concurrence-hierarchy routes in ``measures`` each rest on a
different kernel, so a fault in one shows up as a disagreement between
routes rather than cancelling out: the spectral route on the SVD of the
amplitudes (``singular_values_squared``, LAPACK gesdd through ``svd``),
the minor route on Householder QR factors of column subsets (``minor_sum``,
LAPACK geqrf through ``qr``), and the Newton route on powers and traces of
the Gram matrix (BLAS), which no other route forms. Only the e_k
recurrence and the column-subset enumeration are written out here.

The SVD kernel takes a stack of matrices in one call, and a single matrix
is a stack of one. ``scan`` gets the spectra of a chunk of pairs, at most
2^16 amplitude entries, from one call.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionTooLargeForMinors,
    NonFiniteInput,
    NonPositiveSpectrum,
    NonSquareMatrix,
    NonUnitaryInput,
    NoSignChange,
)

UNITARY_TOL = 1e-10
PSD_CLAMP_TOL = 1e-10
MINOR_DIM_LIMIT = 12

# Column subsets per stacked np.linalg.qr call in minor_sum. Bounds each
# stack to 1024 * d * k complex entries (~1.2 MB at d = 12, k = 6). At
# d <= 12 there are at most C(12, 6) = 924 subsets per level, so one call
# covers a level.
_MINOR_CHUNK = 1024


def seeded_rng(seed) -> np.random.Generator:
    """Replayable random stream: one seed, one platform-independent stream.

    Accepts an integer seed or a sequence of integers for derived streams.
    """
    return np.random.default_rng(seed)


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a finite 2-D complex array."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise NonSquareMatrix(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix contains non-finite entries")
    return a


def require_unitary(matrix) -> np.ndarray:
    a = as_complex_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise NonSquareMatrix(f"unitary input must be square, got {a.shape}")
    residual = np.linalg.norm(a @ a.conj().T - np.eye(a.shape[0]))
    if residual > UNITARY_TOL:
        raise NonUnitaryInput(f"unitarity residual {residual:.3e} exceeds {UNITARY_TOL:.0e}")
    return a


def clamp_nonnegative(values) -> np.ndarray:
    """Zero out negative float noise down to -PSD_CLAMP_TOL; reject anything lower."""
    v = np.array(values, dtype=float)
    if v.size and v.min() < -PSD_CLAMP_TOL:
        raise NonPositiveSpectrum(f"eigenvalue {v.min():.3e} below -{PSD_CLAMP_TOL:.0e}")
    v[v < 0.0] = 0.0
    return v


def singular_values_squared(matrices) -> np.ndarray:
    """Squared singular values of a matrix or of a stack of them: for input
    of shape (..., rows, cols), an array of shape (..., min(rows, cols)),
    each row descending and nonnegative, from one SVD call over the stack.

    A 2-D matrix is a stack of one. numpy runs LAPACK gesdd on each matrix
    of the stack in turn, so every row has the bits a call on that matrix
    alone would give. No Gram product is formed, so sigma_i**2 keeps a
    relative error of about eps * sigma_1 / sigma_i rather than
    eps * (sigma_1 / sigma_i)**2.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim < 2:
        raise NonSquareMatrix(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInput("matrix contains non-finite entries")
    squares = np.linalg.svd(a, compute_uv=False) ** 2
    if not np.isfinite(squares).all():
        raise NonFiniteInput("squared singular values overflow")
    return squares


def elementary_symmetric(values) -> np.ndarray:
    """Elementary symmetric polynomials e_1..e_n of the given n reals.

    One pass of the stable one-value-at-a-time recurrence
    e_j <- e_j + v * e_{j-1}, with e_0 = 1, updates every level at once.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be a 1-D sequence")
    e = np.zeros(v.size + 1)
    e[0] = 1.0
    for value in v:
        e[1:] += value * e[:-1]  # the right side is formed before e changes
    return e[1:]


def minor_sum(matrix) -> np.ndarray:
    """Sums of |det M(beta, gamma)|^2 over all k-subsets of rows and columns,
    for every level k = 1..min(rows, cols).

    Combinatorial cross-check path, with no Gram product and no SVD. T is
    the matrix, or its conjugate transpose when rows < cols, so that T is
    N x d with N >= d; one Householder QR reduces it to its d x d factor
    R0. By Cauchy-Binet, the sum over row subsets beta for a column subset
    gamma is det(R0_gamma^dagger R0_gamma) = |det R_gamma|^2, where R_gamma
    is the R factor of R0[:, gamma]: the product of |diag R_gamma|^2. So
    level k takes C(d, k) small QRs, stacked _MINOR_CHUNK at a time. Level
    1 is the squared Frobenius norm and level d is prod |diag R0|^2.
    Refuses matrices with min dimension above 12.
    """
    a = as_complex_matrix(matrix)
    rows, cols = a.shape
    d = min(rows, cols)
    if d > MINOR_DIM_LIMIT:
        raise DimensionTooLargeForMinors(f"min dimension {d} exceeds {MINOR_DIM_LIMIT}")
    r0 = np.linalg.qr(a if rows >= cols else a.conj().T, mode="r")
    sums = np.zeros(d)
    # Slices, so an empty matrix gives no levels; at d = 1 level 1 wins.
    sums[-1:] = float(np.prod(np.abs(np.diagonal(r0)) ** 2))
    sums[:1] = float(np.sum(np.abs(a) ** 2))
    for k in range(2, d):
        column_sets = np.array(list(itertools.combinations(range(d), k)))
        for start in range(0, len(column_sets), _MINOR_CHUNK):
            block = r0[:, column_sets[start : start + _MINOR_CHUNK]].transpose(1, 0, 2)
            diagonals = np.abs(np.diagonal(np.linalg.qr(block, mode="r"), axis1=1, axis2=2))
            sums[k - 1] += float(np.sum(np.prod(diagonals, axis=1) ** 2))
    return sums


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R diagonal's phases folded back into Q."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> float:
    """Bisection on a sign-changing bracket; returns the midpoint of the
    final interval of width <= tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not lo < hi:
        raise ValueError("need lo < hi")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoSignChange(f"f({lo}) and f({hi}) have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution floor
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


__all__ = [
    "UNITARY_TOL",
    "PSD_CLAMP_TOL",
    "MINOR_DIM_LIMIT",
    "seeded_rng",
    "as_complex_matrix",
    "require_unitary",
    "clamp_nonnegative",
    "singular_values_squared",
    "elementary_symmetric",
    "minor_sum",
    "random_unitary",
    "bisect_root",
]
