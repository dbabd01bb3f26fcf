"""Shared dense linear-algebra helpers."""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .errors import DegenerateSourcesError

_log = logging.getLogger(__name__)

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _inner(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """``sum(a * b)`` of 1-D float64 arrays (``b`` defaults to ``a``: the energy).

    Every scalar energy and 1-D inner product goes through here. It is summed
    by numpy, not BLAS ``ddot``, whose bits change with the BLAS thread count.
    """
    return float(np.einsum("i,i->", a, a if b is None else b))


def _levinson_bound(n: int) -> float:
    """Worst-case normwise backward error of a Cholesky solve of order ``n``.

    For SPD ``T``, the Cholesky solution satisfies ``(T + dT) x = b`` with
    ``|dT| <= gamma(3n+1) |R^T| |R|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 10.4), where ``gamma(m) = m u/(1-m u)``
    and ``u`` is the unit roundoff. By Cauchy-Schwarz on the columns of ``R``,
    every entry of ``|R^T| |R|`` is at most ``sqrt(t_ii t_jj)``, so its
    Frobenius norm is at most ``trace(T)``, which is at most
    ``sqrt(n) ||T||_F``. Hence ``||dT||_F <= sqrt(n) gamma(3n+1) ||T||_F``,
    the residual ``b - T x = dT x`` obeys
    ``||b - T x|| <= sqrt(n) gamma(3n+1) ||T||_F ||x||``, and the normwise
    backward error is at most ``sqrt(n) gamma(3n+1)``. This holds for any SPD
    matrix, (block) Toeplitz or symmetrically permuted by pivoting alike. An
    answer within that bound is as backward stable as Cholesky guarantees to
    be; the rounding of the FFT residual (``O(u log n)`` relative) is far below it.
    """
    m = (3 * n + 1) * _UNIT_ROUNDOFF
    return math.sqrt(n) * m / (1.0 - m)


def _toeplitz_norm(sq_lags: np.ndarray) -> float:
    """``||T||_F`` of a symmetric (block) Toeplitz matrix from its lags' squared norms.

    Lag ``k > 0`` appears ``2 (p - k)`` times, lag 0 ``p`` times.
    """
    p = sq_lags.size
    weights = np.arange(p, 0, -1.0)
    return math.sqrt(2.0 * _inner(weights, sq_lags) - p * float(sq_lags[0]))


def _block_levinson(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Block (Whittle / Wiggins-Robinson) Levinson solve of ``T x = rhs``.

    ``T`` is the block-Toeplitz matrix of :func:`solve_spd`'s lag blocks, taken
    delay-major: block ``(a, b)`` is ``blocks[b - a]`` for ``b >= a`` and its
    transpose below. Order ``n`` keeps the forward predictor ``A``
    (``A T_n = [Pf, 0, ..., 0]``, ``A_0 = I``) and the backward one ``B``
    (``B T_n = [0, ..., 0, Pb]``, ``B_n = I``), the latter stored reversed so
    that raising the order appends a zero block. Every array keeps the delay
    axis last, so each contraction runs its inner loop over delays. O(p^2 m^3)
    time, O(p m^2) memory. Contractions are numpy ``einsum`` (not BLAS, so the
    bits do not depend on the thread count); only the m x m error covariances
    are inverted, by ``numpy.linalg``.
    """
    p, m, _ = blocks.shape
    lags = np.ascontiguousarray(blocks.transpose(1, 2, 0))  # lags[i, j, d]
    pred = np.zeros((2, m, m, p))  # A, then B reversed; delay d at [..., d]
    pred[:, :, :, 0] = np.eye(m)
    err = np.stack((blocks[0], blocks[0]))  # Pf, Pb
    inv = np.linalg.inv(err)
    x = np.zeros((m, p))
    x[:, 0] = np.einsum("ij,j->i", inv[1], rhs[:, 0])
    for n in range(1, p):
        lagged = lags[:, :, n:0:-1]
        # [A, 0] T_{n+1} ends in delta; [0, B] T_{n+1} starts with delta^T.
        delta = np.einsum("ija,jka->ik", pred[0, :, :, :n], lagged)
        deltas = np.stack((delta, delta.T))
        gains = np.einsum("sij,sjk->sik", deltas, inv[::-1])  # delta Pb^-1, delta^T Pf^-1
        # A -= gains[0] [0, B] and B -= gains[1] [A, 0], both from the old predictors.
        pred[:, :, :, :n + 1] -= np.einsum("sij,sjka->sika", gains, pred[::-1, :, :, n::-1])
        err -= np.einsum("sij,sjk->sik", gains, deltas[::-1])
        inv = np.linalg.inv(err)
        # T_{n+1} [x; 0] = [rhs up to n-1; e], and T_{n+1} B^T = [0; ...; Pb].
        e = np.einsum("jia,ja->i", lagged, x[:, :n])
        g = np.einsum("ij,j->i", inv[1], rhs[:, n] - e)
        x[:, :n + 1] += np.einsum("jia,j->ia", pred[1, :, :, n::-1], g)
    return x


@functools.lru_cache
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth number (``2^a 3^b 5^c``) at least ``n``: a fast FFT length.

    A pure-Python double loop that runs several times per projection with a
    few distinct sizes, so the last 128 answers are kept.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest p35 * 2^k >= n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# The last Toeplitz column factored by _levinson: (copy of the column, FFT
# length, stacked spectra of x = T^-1 e_1 and of w = [0, x_{p-1}, ..., x_1],
# x_0), replaced whole and never modified.
_factor: tuple | None = None


def _durbin(column: np.ndarray) -> np.ndarray:
    """``T^-1 e_1`` for the symmetric Toeplitz ``T`` with first column ``column``.

    Levinson-Durbin recursion on the forward predictor ``a`` (``T_n a =
    [P, 0, ..., 0]``, ``a_0 = 1``); the backward predictor is ``a`` reversed,
    so raising the order is one reflection. O(p^2) time, O(p) memory. Raises
    ``LinAlgError`` when a prediction error ``P`` is not positive, i.e. when a
    leading minor of ``T`` is not positive definite.
    """
    p = column.size
    a = np.zeros(p)
    a[0] = 1.0
    err = float(column[0])
    n = 1
    while err > 0.0 and n < p:
        delta = _inner(a[:n], column[n:0:-1])
        k = delta / err
        a[1:n + 1] -= k * a[n - 1::-1]
        err -= k * delta
        n += 1
    if not err > 0.0:  # also catches NaN
        raise np.linalg.LinAlgError(f"leading minor of order {n} is not positive definite")
    return a / err


def _gohberg_semencul(factor: tuple, b: np.ndarray) -> np.ndarray:
    """``T^-1 b = (L(x) L(x)^T b - L(w) L(w)^T b) / x_0``: four FFTs.

    ``L(v)`` is the lower-triangular Toeplitz matrix with first column ``v``.
    Each product is a truncated convolution, and ``L(v)^T = J L(v) J`` with
    ``J`` the reversal. The ``x`` and ``w`` halves go through each transform
    as one stacked pair of rows, which pocketfft transforms independently.
    """
    _, n_fft, xw_spec, x0 = factor
    p = b.size
    b_spec = np.fft.rfft(b[::-1], n_fft)
    uv = np.fft.irfft(xw_spec * b_spec, n_fft)[:, p - 1::-1]
    prod = xw_spec * np.fft.rfft(uv, n_fft)
    return np.fft.irfft(prod[0] - prod[1], n_fft)[:p] / x0


def _levinson(column: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric Toeplitz system ``T x = rhs``, ``T`` given by its first column.

    :func:`_durbin` gives ``T^-1 e_1``, from which the Gohberg-Semencul
    formula applies ``T^-1`` by FFTs (:func:`_gohberg_semencul`). It is only
    weakly stable: ``T^-1 e_1`` is off by up to a relative ``cond(T) u`` and
    every answer inherits that. For a reference low-passed at 1 kHz the
    backward error reaches 1e-8, far beyond the bound of :func:`solve_spd`'s
    check. One step of iterative refinement, ``x += T^-1 (rhs - T x)``,
    brings it back to about ``u``. The factor is kept for the last column,
    reused only for an exactly equal one and rebuilt otherwise.
    """
    global _factor
    p = column.size
    factor = _factor  # read once, so a concurrent replacement cannot mix two factors
    if factor is None or not np.array_equal(factor[0], column):
        x = _durbin(column)
        n_fft = _next_fast_len(2 * p - 1)
        key = column.copy()
        xw_spec = np.fft.rfft(np.stack((x, np.concatenate(([0.0], x[:0:-1])))), n_fft)
        for a in (key, xw_spec):
            a.flags.writeable = False
        factor = _factor = (key, n_fft, xw_spec, float(x[0]))
    x = _gohberg_semencul(factor, rhs)
    residual = rhs - _block_matvec(column[:, None, None], x[None])[0]
    return x + _gohberg_semencul(factor, residual)


def _block_matvec(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T x`` for :func:`solve_spd`'s lag blocks, each block embedded in a circulant."""
    p = blocks.shape[0]
    n_fft = _next_fast_len(2 * p - 1)
    # Block (i, j) has first column blocks[:, j, i] and first row blocks[:, i, j];
    # its circulant's first column is that column, zeros, then the row reversed.
    circ = np.zeros(blocks.shape[1:] + (n_fft,))
    circ[:, :, :p] = blocks.transpose(2, 1, 0)
    circ[:, :, n_fft - p + 1:] = blocks[:0:-1].transpose(1, 2, 0)
    prod = np.einsum("ijk,jk->ik", np.fft.rfft(circ, n_fft), np.fft.rfft(x, n_fft))
    return np.fft.irfft(prod, n_fft)[:, :p]


def _backward_error(gram: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> float:
    """``||T x - b|| / (||T||_F ||x|| + ||b||)``, ``T x`` by FFTs; NaN for a non-finite operand."""
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all() and np.isfinite(x).all()):
        return math.nan
    residual = rhs - _block_matvec(gram, x)
    norm_t = _toeplitz_norm(np.einsum("kij,kij->k", gram, gram))
    scale = norm_t * math.sqrt(_inner(x.ravel())) + math.sqrt(_inner(rhs.ravel()))
    # scale is 0 only for rhs = x = 0, which is solved exactly.
    return math.sqrt(_inner(residual.ravel())) / scale if scale else 0.0


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``T x = rhs`` for a positive-semidefinite block-Toeplitz Gram matrix ``T``.

    ``gram`` of shape ``(p, m, m)`` is the first block row of ``T``, given as
    lag blocks: for ``m`` signals and delays ``0..p-1``, ``gram[d][i, j]`` is
    the inner product of signal ``i`` with signal ``j`` delayed by ``d``.
    ``rhs`` and the result have shape ``(m, p)`` and are ordered source-major,
    signal ``i``'s delay ``a`` at ``[i, a]``; ``T`` is the ``(m p) x (m p)``
    Gram matrix of that ordering, and it is never formed unless the check
    below fails. A plain ``m x m`` Gram matrix is one lag: ``gram[None]``
    with ``rhs`` of shape ``(m, 1)``. With ``m == 1``, ``T`` is symmetric
    Toeplitz with first column ``gram[:, 0, 0]`` and is solved by Levinson
    recursion: :func:`_durbin` factors the column once (O(p^2) time, O(p)
    memory) and :func:`_levinson` solves by FFTs (O(p log p)), reusing the
    factor while the column stays exactly the same. Otherwise it is solved by
    block Levinson recursion (Whittle; O(p^2 m^3) time, O(p m^2) memory);
    with ``p == 1`` that is one inversion of ``gram[0]``.

    Every answer is held to one check: its normwise backward error
    (:func:`_backward_error`) must be within Cholesky's worst-case bound
    (:func:`_levinson_bound`). If the recursion breaks down or its answer
    fails the check, ``T`` is built and factored in place by LAPACK
    ``dpstrf``, Cholesky with diagonal pivoting, which stops at the first
    pivot below its default tolerance ``n u max(diag T)``. The leading
    ``rank`` pivots are solved by two triangular substitutions and the rest
    get zero coefficients: for dependent signals, one of many exact answers
    that differ only in the null space of ``T`` and so give one projection.
    A dense answer that fails the check (an indefinite ``T``) raises
    :class:`DegenerateSourcesError`. A non-finite input has a NaN backward
    error and its answer is returned, for the metrics' ``NonFiniteError``.

    Any other ``gram.ndim`` raises ``ValueError``. The path taken is logged
    at DEBUG on the ``sepmetrics.linalg`` logger.
    """
    if gram.ndim != 3:
        raise ValueError(f"gram must be 3-D lag blocks, got {gram.ndim}-D")
    p, m, _ = gram.shape
    what, n = ("Levinson" if m == 1 else "block Levinson"), rhs.size
    bound = _levinson_bound(n)
    try:
        x = _levinson(gram[:, 0, 0], rhs[0])[None] if m == 1 else _block_levinson(gram, rhs)
    except np.linalg.LinAlgError as exc:
        _log.debug("solve_spd: %s failed (n=%d: %s); using Cholesky", what, n, exc)
    else:
        error = _backward_error(gram, rhs, x)
        if error <= bound:
            _log.debug("solve_spd: %s (n=%d, backward error %.3g)", what, n, error)
            return x
        _log.debug("solve_spd: %s rejected (n=%d, backward error %.3g > %.3g); "
                   "using Cholesky", what, n, error, bound)
    from scipy.linalg.lapack import dpstrf  # only this rare path loads scipy

    # Block (i, j) is Toeplitz with first column gram[:, j, i] and first row
    # gram[:, i, j]: entry (a, b) is [row reversed, column][p - 1 + a - b].
    lag = np.subtract.outer(np.arange(p - 1, 2 * p - 1), np.arange(p))
    dense = np.empty((m, p, m, p))
    for i in range(m):
        for j in range(m):
            dense[i, :, j] = np.concatenate((gram[:0:-1, i, j], gram[:, j, i]))[lag]
    # T is exactly symmetric: its transpose is T in the Fortran order LAPACK overwrites.
    low, piv, rank, _ = dpstrf(dense.reshape(n, n).T, lower=1, overwrite_a=1)
    order = piv[:rank] - 1
    y = np.asarray(rhs, dtype=np.float64).ravel()[order]  # a copy; the substitutions sum by _inner
    for k in range(rank):  # L z = P^T rhs
        y[k] = (y[k] - _inner(low[k, :k], y[:k])) / low[k, k]
    for k in range(rank - 1, -1, -1):  # L^T (P^T x) = z
        y[k] = (y[k] - _inner(low[k + 1:rank, k], y[k + 1:])) / low[k, k]
    x = np.zeros(rhs.shape)
    x.flat[order] = y
    error = _backward_error(gram, rhs, x)
    _log.debug("solve_spd: Cholesky (n=%d, rank %d, backward error %.3g)", n, rank, error)
    if error > bound:  # False for NaN: a non-finite input passes through
        raise DegenerateSourcesError(f"source Gram matrix ({n}x{n}) solved at rank {rank} "
                                     f"misses the backward-error bound: {error:.3g} > {bound:.3g}")
    return x
