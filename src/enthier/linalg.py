"""Dense complex linear algebra for small matrices, on numpy LAPACK and BLAS.

The three concurrence-hierarchy routes in ``measures`` each rest on a
different kernel, so a fault in one shows up as a disagreement between
routes rather than cancelling out: the spectral route on the SVD of the
amplitudes (``singular_values_squared``, LAPACK gesdd through ``svd``),
the minor route on a bidiagonal form (``minor_sum``, BLAS-level steps),
and the Newton route on powers and traces of the Gram matrix (BLAS), which
no other route forms. Only the e_k recurrence, the Householder
bidiagonalization and the path-matching recurrence are written out here.

The SVD kernel takes a stack of matrices in one call, and a single matrix
is a stack of one. ``scan`` gets the spectra of a chunk of pairs, at most
2^16 amplitude entries, from one call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteInput,
    NonSquareMatrix,
    NonUnitaryInput,
    NoSignChange,
)

UNITARY_TOL = 1e-10


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


def _phase(z, size: float):
    """z / size for size = |z| > 0. numpy divides by multiplying with 1 / size,
    which overflows when size is subnormal; there both are first scaled by
    2^600, which is exact."""
    if size < 2.0**-600:
        z, size = z * 2.0**600, size * 2.0**600
    return z / size


def minor_sum(matrix) -> np.ndarray:
    """Sums of |det M(beta, gamma)|^2 over all k-subsets of rows and columns,
    for every level k = 1..min(rows, cols).

    Cross-check path with no Gram product and no LAPACK factorization. T is
    the matrix, or its conjugate transpose when rows < cols (N x d, N >= d).
    Golub-Kahan Householder bidiagonalization (Golub and Van Loan, Matrix
    Computations, 5.4.8) takes T to B = U^dagger T V, with the same minor
    sums by Cauchy-Binet. Each nonzero minor of B is one monomial, so level
    k sums the k-matchings of a path whose edge weights |alpha_1|^2,
    |beta_1|^2, ..., |alpha_d|^2 are the squared norms the 2d - 1
    reflectors fold: m_j(k) = m_{j-1}(k) + w_j m_{j-2}(k-1), all terms >= 0.
    """
    a = as_complex_matrix(matrix)
    t = a.copy() if a.shape[0] >= a.shape[1] else a.conj().T.copy()
    d = t.shape[1]
    below = last = np.concatenate(([1.0], np.zeros(d)))  # m_{j-2}, m_{j-1}
    for step in range(2 * d - 1):
        k = step // 2
        # Column k below the diagonal, then row k right of the superdiagonal as a
        # column of the transposed view (a unitary on the right keeps the sums).
        block = t[k:, k:] if step % 2 == 0 else t[k:, k + 1 :].T
        x, rest = block[:, 0], block[:, 1:]
        head, tail = abs(x[0]), np.vdot(x[1:], x[1:]).real
        weight = head * head + tail
        if tail > 0.0:  # else x is reduced already, the zero column included
            norm = math.sqrt(weight)
            v = x.copy()
            v[0] += norm * (_phase(x[0], head) if head else 1.0)
            rest -= np.outer(v, (v.conj() @ rest) / (norm * (norm + head)))
        level = last.copy()
        level[1:] += weight * below[:-1]
        below, last = last, level
    return last[1:]


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
    "seeded_rng",
    "as_complex_matrix",
    "require_unitary",
    "singular_values_squared",
    "elementary_symmetric",
    "minor_sum",
    "random_unitary",
    "bisect_root",
]
