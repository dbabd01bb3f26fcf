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
    every entry of ``|R^T| |R|`` is at most ``sqrt(t_ii t_jj)``, which is
    ``t_0`` for a Toeplitz matrix, so ``||dT||_F <= n gamma(3n+1) t_0``. The
    diagonal alone gives ``||T||_F >= sqrt(n) t_0``. Hence the residual
    ``b - T x = dT x`` obeys ``||b - T x|| <= sqrt(n) gamma(3n+1) ||T||_F ||x||``
    and the normwise backward error is at most ``sqrt(n) gamma(3n+1)``. A
    Levinson solution within that bound is as backward stable as Cholesky
    guarantees to be; the rounding of the FFT residual (``O(u log n)``
    relative) is far below it.
    """
    m = (3 * n + 1) * _UNIT_ROUNDOFF
    return math.sqrt(n) * m / (1.0 - m)


def _solve_toeplitz(column: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Levinson solve checked against :func:`_levinson_bound`; ``None`` if rejected."""
    n = column.size
    try:
        x = scipy.linalg.solve_toeplitz(column, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        _log.debug("solve_spd: Levinson failed (n=%d: %s); using Cholesky", n, exc)
        return None
    if not np.all(np.isfinite(x)):
        _log.debug("solve_spd: Levinson gave non-finite values (n=%d); using Cholesky", n)
        return None
    residual = rhs - scipy.linalg.matmul_toeplitz(column, x, check_finite=False)
    # ||T||_F^2: diagonal k (k > 0) holds 2 (n - k) copies of t_k, the main one n.
    weights = np.arange(n, 0, -1.0)
    norm_t = math.sqrt(2.0 * _inner(weights, column ** 2) - n * float(column[0]) ** 2)
    scale = norm_t * math.sqrt(_inner(x)) + math.sqrt(_inner(rhs))
    # scale is 0 only for rhs = x = 0, which is solved exactly.
    error = math.sqrt(_inner(residual)) / scale if scale else 0.0
    bound = _levinson_bound(n)
    if error <= bound:
        _log.debug("solve_spd: Levinson (n=%d, backward error %.3g)", n, error)
        return x
    _log.debug("solve_spd: Levinson rejected (n=%d, backward error %.3g > %.3g); "
               "using Cholesky", n, error, bound)
    return None


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for a symmetric positive-definite Gram matrix.

    A 2-D ``gram`` is the matrix itself. A 1-D ``gram`` of length ``n`` is the
    first column of a symmetric ``n x n`` Toeplitz matrix, which must be
    positive definite (this path does not check it; an autocorrelation of a
    nonzero finite signal qualifies). That form is solved by Levinson
    recursion (``scipy.linalg.solve_toeplitz``: O(n^2) time, O(n) memory,
    the matrix is never formed), and the answer is kept only if it is finite
    and its normwise backward error ``||T x - b|| / (||T||_F ||x|| + ||b||)``
    is within Cholesky's worst-case bound (see :func:`_levinson_bound`).
    Otherwise the Toeplitz matrix is built and solved as below.

    The dense path uses a Cholesky factorization. If that fails, it retries
    once with relative jitter ``JITTER_SCALE * trace/n`` added to the
    diagonal; failure beyond that raises :class:`DegenerateSourcesError`
    rather than silently falling back to a pseudo-inverse.

    The path taken is logged at DEBUG on the ``sepmetrics.linalg`` logger.
    """
    if gram.ndim == 1:
        x = _solve_toeplitz(gram, rhs)
        if x is not None:
            return x
        gram = scipy.linalg.toeplitz(gram)
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
