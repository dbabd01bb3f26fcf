"""Shared dense linear-algebra helpers."""

from __future__ import annotations

import logging
import math

import numpy as np
import scipy.linalg

from .errors import DegenerateSourcesError

_log = logging.getLogger(__name__)

# Relative diagonal jitter applied once when a Gram matrix fails to factor.
JITTER_SCALE = 1e-12

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
    matrix, Toeplitz or block Toeplitz alike. A Levinson solution within that
    bound is as backward stable as Cholesky guarantees to be; the rounding of
    the FFT residual (``O(u log n)`` relative) is far below it.
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

    ``T`` is the block-Toeplitz matrix of :func:`solve_spd`'s 3-D form, taken
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


def _block_matvec(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T x`` for :func:`solve_spd`'s 3-D form: one FFT Toeplitz product per block."""
    m = blocks.shape[1]
    # Block (i, j) has first column blocks[:, j, i] and first row blocks[:, i, j].
    return np.array([sum(scipy.linalg.matmul_toeplitz((blocks[:, j, i], blocks[:, i, j]), x[j],
                                                      check_finite=False) for j in range(m))
                     for i in range(m)])


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for a symmetric positive-definite Gram matrix.

    A 2-D ``gram`` is the matrix itself. A 3-D ``gram`` of shape ``(p, m, m)``
    is the first block row of a symmetric block-Toeplitz matrix, given as lag
    blocks: for ``m`` signals and delays ``0..p-1``, ``gram[d][i, j]`` is the
    inner product of signal ``i`` with signal ``j`` delayed by ``d``. ``rhs``
    and the result then have shape ``(m, p)`` and are ordered source-major,
    signal ``i``'s delay ``a`` at ``[i, a]``; the matrix is the
    ``(m p) x (m p)`` Gram matrix of that ordering, and it is never formed
    unless the check below fails. With ``m == 1`` it is symmetric Toeplitz
    with first column ``gram[:, 0, 0]`` and is solved by Levinson recursion
    (``scipy.linalg.solve_toeplitz``, O(p^2) time, O(p) memory); otherwise by
    block Levinson recursion (Whittle; O(p^2 m^3) time, O(p m^2) memory).

    The recursion's answer is kept only if it is finite and its normwise
    backward error ``||T x - b|| / (||T||_F ||x|| + ||b||)`` is within
    Cholesky's worst-case bound (see :func:`_levinson_bound`). Otherwise the
    matrix is built and solved as below.

    The dense path uses a Cholesky factorization. If that fails, it retries
    once with relative jitter ``JITTER_SCALE * trace/n`` added to the
    diagonal; failure beyond that raises :class:`DegenerateSourcesError`
    rather than silently falling back to a pseudo-inverse.

    Any other ``gram.ndim`` raises ``ValueError``. The path taken is logged
    at DEBUG on the ``sepmetrics.linalg`` logger.
    """
    if gram.ndim == 2:
        return _solve_dense(gram, rhs)
    if gram.ndim != 3:
        raise ValueError(f"gram must be a 2-D matrix or 3-D lag blocks, got {gram.ndim}-D")
    m = gram.shape[1]
    what, n = ("Levinson" if m == 1 else "block Levinson"), rhs.size
    try:
        if m == 1:
            x = scipy.linalg.solve_toeplitz(gram[:, 0, 0], rhs[0], check_finite=False)[None]
        else:
            x = _block_levinson(gram, rhs)
    except np.linalg.LinAlgError as exc:
        _log.debug("solve_spd: %s failed (n=%d: %s); using Cholesky", what, n, exc)
    else:
        if np.all(np.isfinite(x)):
            residual = rhs - _block_matvec(gram, x)
            norm_t = _toeplitz_norm(np.einsum("kij,kij->k", gram, gram))
            scale = norm_t * math.sqrt(_inner(x.ravel())) + math.sqrt(_inner(rhs.ravel()))
            # scale is 0 only for rhs = x = 0, which is solved exactly.
            error = math.sqrt(_inner(residual.ravel())) / scale if scale else 0.0
            bound = _levinson_bound(n)
            if error <= bound:
                _log.debug("solve_spd: %s (n=%d, backward error %.3g)", what, n, error)
                return x
            _log.debug("solve_spd: %s rejected (n=%d, backward error %.3g > %.3g); "
                       "using Cholesky", what, n, error, bound)
        else:
            _log.debug("solve_spd: %s gave non-finite values (n=%d); using Cholesky", what, n)
    dense = np.block([[scipy.linalg.toeplitz(gram[:, j, i], gram[:, i, j])
                       for j in range(m)] for i in range(m)])
    return _solve_dense(dense, rhs.ravel()).reshape(rhs.shape)


def _solve_dense(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with one jitter retry (see :func:`solve_spd`)."""
    try:
        cf = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        _log.debug("solve_spd: Cholesky (n=%d)", gram.shape[0])
        return scipy.linalg.cho_solve(cf, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    n = gram.shape[0]
    jitter = JITTER_SCALE * np.trace(gram) / n
    _log.debug("solve_spd: Cholesky failed (n=%d); jitter retry with %.3g", n, jitter)
    try:
        cf = scipy.linalg.cho_factor(
            gram + jitter * np.eye(n), lower=True, check_finite=False
        )
        return scipy.linalg.cho_solve(cf, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSourcesError(
            f"source Gram matrix ({n}x{n}) is singular beyond jitter {jitter:g}"
        ) from exc
