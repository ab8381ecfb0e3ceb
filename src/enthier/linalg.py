"""Dense complex linear algebra for small matrices, on numpy LAPACK and
BLAS, and the seeded random streams ``scan`` replays.

The three concurrence-hierarchy routes in ``measures`` each rest on a
different kernel, so a fault in one shows up as a disagreement between
routes rather than cancelling out: the spectral route on the SVD of the
amplitudes (``singular_values_squared``, LAPACK gesdd through ``svd``),
the minor route on a bidiagonal form (``minor_sum``, BLAS-level steps),
and the Newton route on powers and traces of the Gram matrix (BLAS), which
no other route forms. Only the e_k recurrence, the Householder
bidiagonalization and the path-matching recurrence are written out here.

The SVD kernel and the e_k recurrence each take a stack in one call, a
matrix or a spectrum per row, and a single input is a stack of one.
``scan`` gets the spectra of a chunk of pairs, at most 2^16 amplitude
entries, from one SVD call and their levels from one e_k pass, and
``paper-examples`` those of its fixture states the same way.

Sample i of a scan seeded with s draws from ``seeded_rng((s, i))``;
``seeded_streams`` gives those streams for a range of i, bit for bit, from
numpy's SeedSequence hash written out here over the whole range at once.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DimensionMismatch, NonFiniteInput


def seeded_rng(seed) -> np.random.Generator:
    """Replayable random stream: one seed, one platform-independent stream.

    Accepts an integer seed or a sequence of integers for derived streams.
    """
    return np.random.default_rng(seed)


# Fewest streams a scan chunk hashes in one vectorized pass. Measured with
# numpy 2.4.6 on a 2-core x86-64 host: default_rng((seed, i)) costs 10-20 us
# per stream; the pass costs 45-65 us fixed plus 2-3 us per stream for PCG64
# and the Generator. They break even at 4-5 streams. scan --dims 48 draws one
# pair per call and keeps seeded_rng.
_HASHED_STREAMS_MIN = 6

# numpy's SeedSequence (NEP 19 keeps a seeded stream stable across releases;
# the hash is M. E. O'Neill's seed_seq_fe, pcg-random.org, 2015). An entropy
# (seed, i) with both words below 2^32 fills a 4-word uint32 pool [seed, i, 0, 0].
# Each hashmix step XORs a word with the running hash constant, advances the
# constant by one multiplication, multiplies by the new one and xorshifts.
# Mixing word src into word dst sets dst to L dst - R hashmix(src), xorshifted.
# The hash constants never depend on the data, so they are computed once here.
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR and multiplier columns of ``count`` successive hashmix steps."""
    chain = [init]
    for _ in range(count):
        chain.append((chain[-1] * mult) & _MASK32)
    table = np.array(chain, np.uint32)
    return table[:-1, None], table[1:, None]


_POOL_XORS, _POOL_MULTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# Word src mixes into the other three words, in order, with steps 4 + 3 src
# to 6 + 3 src; its own row takes step 0, and that result is dropped.
_POOL_CROSS = [
    (_POOL_XORS[rows], _POOL_MULTS[rows])
    for rows in (np.insert(np.arange(4 + 3 * src, 7 + 3 * src), src, 0) for src in range(4))
]
# generate_state(4, np.uint64) reads the pool twice round as 8 uint32 words
_STATE_XORS, _STATE_MULTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(words: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    mixed = (words ^ xors) * mults
    return mixed ^ (mixed >> _XSHIFT)


def _stream_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for each i in
    [start, stop), one row each, from one pass in uint32 arithmetic; the seed
    and every index must be below 2^32."""
    pool = np.zeros((4, stop - start), np.uint32)
    pool[0] = seed
    pool[1] = np.arange(start, stop, dtype=np.uint32)
    pool = _hashmix(pool, _POOL_XORS[:4], _POOL_MULTS[:4])
    for src in range(4):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(pool[src], *_POOL_CROSS[src])
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_XORS, _STATE_MULTS)
    # little-endian word pairs, as SeedSequence joins them on every platform
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


class _HashedSeed(ISeedSequence):
    """A seed whose PCG64 state words are already hashed. PCG64 asks for
    generate_state(4, np.uint64) once, and gets them as they are."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seeded_streams(seed: int, start: int, stop: int):
    """The streams ``seeded_rng((seed, i))`` gives for i in [start, stop),
    bit for bit, built one at a time as they are taken: ``scan``'s streams.

    Their PCG64 seeds come from one vectorized SeedSequence pass. A seed or
    an index of 2^32 or more spreads over more pool words, and a range of
    fewer than _HASHED_STREAMS_MIN streams does not repay the pass: those
    take seeded_rng one index at a time.
    """
    if seed > _MASK32 or stop > _MASK32 + 1 or stop - start < _HASHED_STREAMS_MIN:
        for index in range(start, stop):
            yield seeded_rng((seed, index))
        return
    for words in _stream_words(seed, start, stop):
        yield np.random.Generator(np.random.PCG64(_HashedSeed(words)))


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
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInput("matrix contains non-finite entries")
    squares = np.linalg.svd(a, compute_uv=False) ** 2
    if not np.isfinite(squares).all():
        raise NonFiniteInput("squared singular values overflow")
    return squares


def elementary_symmetric(values) -> np.ndarray:
    """Elementary symmetric polynomials e_1..e_n of n reals, or of each row
    of a stack of them: for input of shape (..., n), an array of the same
    shape whose last axis holds e_1..e_n.

    One pass of the stable one-value-at-a-time recurrence
    e_j <- e_j + v * e_{j-1}, with e_0 = 1, updates every level of every
    row at once. The levels run along the first axis of the work array, so
    each step is one multiply and one add on two fixed views of it. A 1-D
    sequence is a stack of one, and every row has the bits a call on that
    row alone would give.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim < 1:
        raise ValueError("values must be a sequence or a stack of them")
    e = np.zeros((v.shape[-1] + 1,) + v.shape[:-1])
    e[0] = 1.0
    head, tail = e[:-1], e[1:]  # e_{j-1} and e_j for every level j at once
    for column in v.transpose(-1, *range(v.ndim - 1)):
        tail += column * head  # the right side is formed before e changes
    return tail.transpose(*range(1, v.ndim), 0)


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
    The recurrence runs on lists of Python floats, whose products and sums
    round as numpy's float64 operations do, so the levels have the bits of
    the same recurrence on arrays without a numpy call per step.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix contains non-finite entries")
    t = a.copy() if a.shape[0] >= a.shape[1] else a.conj().T.copy()
    d = t.shape[1]
    below = last = [1.0] + [0.0] * d  # m_{j-2}, m_{j-1}
    for step in range(2 * d - 1):
        k = step // 2
        # Column k below the diagonal, then row k right of the superdiagonal as a
        # column of the transposed view (a unitary on the right keeps the sums).
        block = t[k:, k:] if step % 2 == 0 else t[k:, k + 1 :].T
        x, rest = block[:, 0], block[:, 1:]
        head, tail = abs(x[0]), np.vdot(x[1:], x[1:]).real
        weight = float(head * head + tail)
        if tail > 0.0:  # else x is reduced already, the zero column included
            norm = math.sqrt(weight)
            v = x.copy()
            v[0] += norm * (_phase(x[0], head) if head else 1.0)
            rest -= v[:, None] * ((v.conj() @ rest) / (norm * (norm + head)))
        below, last = last, [1.0] + [m + weight * n for m, n in zip(last[1:], below)]
    return np.array(last[1:])


__all__ = [
    "seeded_rng",
    "seeded_streams",
    "singular_values_squared",
    "elementary_symmetric",
    "minor_sum",
]
