"""Tools the tests build their inputs with, and no command uses.

The paper's claims the tests check (the hierarchy is invariant under local
unitaries and does not increase under LOCC, and on 2x2 pure states the
Wootters concurrence is 2 |det A|) need Haar unitaries, local rotations,
projectors and majorized spectra. These live here rather than in the
package, so every public name of the package serves a command.
"""

import math

import numpy as np

from enthier.errors import DimensionMismatch, NonFiniteInput
from enthier.states import PureState

UNITARY_TOL = 1e-10


class NonUnitaryInput(ValueError):
    """Matrix is not square, or fails the U U^dag = I check beyond UNITARY_TOL."""


def same_state(first: PureState, second: PureState) -> bool:
    """Value equality of two states: the same shape and the same amplitudes.
    PureState itself compares by identity."""
    return first.amplitudes.shape == second.amplitudes.shape and bool(
        np.array_equal(first.amplitudes, second.amplitudes)
    )


def require_unitary(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix contains non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise NonUnitaryInput(f"unitary input must be square, got {a.shape}")
    residual = np.linalg.norm(a @ a.conj().T - np.eye(a.shape[0]))
    if residual > UNITARY_TOL:
        raise NonUnitaryInput(f"unitarity residual {residual:.3e} exceeds {UNITARY_TOL:.0e}")
    return a


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R diagonal's phases folded back into Q."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def apply_local_unitary(state: PureState, u, v) -> PureState:
    """Act with U (x) V: the amplitude matrix maps to U^T A V."""
    uu = require_unitary(u)
    vv = require_unitary(v)
    if uu.shape[0] != state.dim_a or vv.shape[0] != state.dim_b:
        raise DimensionMismatch(
            f"unitaries {uu.shape[0]}/{vv.shape[0]} do not match state {state.dim_a}x{state.dim_b}"
        )
    return PureState(uu.T @ state.amplitudes @ vv)


def density_matrix(state: PureState) -> np.ndarray:
    """Projector |state><state| in the product basis (row-major |ij>)."""
    vec = state.amplitudes.reshape(-1)
    return np.outer(vec, vec.conj())


def wootters_pure(state: PureState) -> float:
    """Two-qubit pure-state concurrence 2 |det A|."""
    if (state.dim_a, state.dim_b) != (2, 2):
        raise DimensionMismatch(f"need a 2x2 state, got {state.dim_a}x{state.dim_b}")
    return float(2.0 * abs(np.linalg.det(state.amplitudes)))


def t_transform_source(target, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a spectrum majorized by ``target`` via random Robin-Hood
    transfers: each step moves mass from a larger entry toward a smaller
    one without letting them cross. Result is sorted descending."""
    if steps < 1:
        raise ValueError("need at least one transfer step")
    spectrum = np.sort(np.asarray(target, dtype=float))[::-1].copy()
    d = spectrum.size
    if d > 1:
        for _ in range(steps):
            i, j = rng.choice(d, size=2, replace=False)
            hi, lo = (i, j) if spectrum[i] >= spectrum[j] else (j, i)
            delta = 0.5 * (spectrum[hi] - spectrum[lo]) * rng.uniform()
            spectrum[hi] -= delta
            spectrum[lo] += delta
    return np.sort(spectrum)[::-1]
