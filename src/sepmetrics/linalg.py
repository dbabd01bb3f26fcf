"""Shared dense linear-algebra helpers."""

from __future__ import annotations

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


def _fft_size(p: int) -> int:
    """The smallest power of two ``>= 2p - 1``: ``p`` lags each way, with no wrap-around."""
    return 1 << (2 * p - 2).bit_length()


def _generator_spectra(gen: np.ndarray, inv: np.ndarray) -> tuple:
    """:func:`_block_gohberg_semencul`'s factor from the generators and inverse errors."""
    n_fft = _fft_size(gen.shape[-1])
    g_spec = np.fft.rfft(gen, n_fft)
    h_spec = np.einsum("sjif,sjk->sikf", g_spec, inv * np.array([1.0, -1.0])[:, None, None])
    return n_fft, g_spec, h_spec


def _block_durbin(blocks: np.ndarray) -> tuple:
    """Block Gohberg-Semencul factor of the block-Toeplitz ``T`` of :func:`solve_spd`'s lag blocks.

    ``T`` is taken delay-major: block ``(a, b)`` is ``blocks[b - a]`` for
    ``b >= a`` and its transpose below. The block (Whittle / Wiggins-Robinson)
    Levinson recursion raises the order of the forward predictor ``A``
    (``A T_n = [Pf, 0, ..., 0]``, ``A_0 = I``) and the backward one ``B``
    (``B T_n = [0, ..., 0, Pb]``, ``B_{n-1} = I``), the latter stored reversed
    so that raising the order appends a zero block; no solution is carried
    along. Every array keeps the delay axis last, so each contraction runs its
    inner loop over delays. O(p^2 m^3) time, O(p m^2) memory. Contractions are
    numpy ``einsum`` (not BLAS, so the bits do not depend on the thread
    count); only the m x m error covariances are inverted, by ``numpy.linalg``,
    which raises ``LinAlgError`` for an exactly singular one. The generators
    are ``alpha_k = A_k^T`` and ``beta = [0, B_0^T, ..., B_{p-2}^T]``.
    """
    p, m, _ = blocks.shape
    lags = np.ascontiguousarray(blocks.transpose(1, 2, 0))  # lags[i, j, d]
    pred = np.zeros((2, m, m, p))  # A, then B reversed; delay d at [..., d]
    pred[:, :, :, 0] = np.eye(m)
    err = np.stack((blocks[0], blocks[0]))  # Pf, Pb
    inv = np.linalg.inv(err)
    deltas = np.empty((2, m, m))
    for n in range(1, p):
        # [A, 0] T_{n+1} ends in delta; [0, B] T_{n+1} starts with delta^T.
        np.einsum("ija,jka->ik", pred[0, :, :, :n], lags[:, :, n:0:-1], out=deltas[0])
        deltas[1] = deltas[0].T
        gains = np.einsum("sij,sjk->sik", deltas, inv[::-1])  # delta Pb^-1, delta^T Pf^-1
        # A -= gains[0] [0, B] and B -= gains[1] [A, 0], both from the old predictors.
        pred[:, :, :, :n + 1] -= np.einsum("sij,sjka->sika", gains, pred[::-1, :, :, n::-1])
        err -= np.einsum("sij,sjk->sik", gains, deltas[::-1])
        inv = np.linalg.inv(err)
    gen = np.zeros((2, m, m, p))  # alpha_k = A_k^T and beta_k = B_{k-1}^T, untransposed
    gen[0] = pred[0]
    gen[1, :, :, 1:] = pred[1, :, :, p - 1:0:-1]
    return _generator_spectra(gen, inv)


def _durbin(column: np.ndarray) -> tuple:
    """:func:`_block_durbin`'s factor for one signal, ``T`` the symmetric Toeplitz of ``column``.

    Levinson-Durbin recursion on the forward predictor ``a`` (``T_n a =
    [P, 0, ..., 0]``, ``a_0 = 1``); the backward predictor is ``a`` reversed,
    so raising the order is one reflection. O(p^2) time, O(p) memory. In the
    block terms ``Pf = Pb = P``, ``alpha = a`` and ``beta = [0, a_{p-1}, ...,
    a_1]``; with no m x m matrices to invert and multiply, the recursion is
    about 4x faster than :func:`_block_durbin`'s at 512 taps. Raises
    ``LinAlgError`` when a prediction error ``P`` is not positive, i.e. when a
    leading minor of ``T`` is not positive definite.
    """
    p = column.size
    gen = np.zeros((2, 1, 1, p))
    a = gen[0, 0, 0]
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
    gen[1, 0, 0, 1:] = a[:0:-1]
    return _generator_spectra(gen, np.full((2, 1, 1), 1.0 / err))


def _block_gohberg_semencul(factor: tuple, b: np.ndarray) -> np.ndarray:
    """``T^-1 b = L(alpha) (I x Pf^-1) L(alpha)^T b - L(beta) (I x Pb^-1) L(beta)^T b``: four FFTs.

    The block Gohberg-Semencul (Gohberg-Heinig) formula for the factor of
    :func:`_block_durbin` or :func:`_durbin`. ``L(v)`` is the lower
    block-triangular Toeplitz matrix with first block column ``v``. Each
    product is a truncated block convolution, and ``L(v)^T`` is one in
    reverse. ``b`` and the result have shape ``(m, p)``. The factor is
    ``(n_fft, g_spec, h_spec)``: the spectra of the untransposed generators
    ``[alpha, beta]`` and of the transposed ones times ``Pf^-1`` and
    ``-Pb^-1``, each ``(2, m, m, n_fft // 2 + 1)``, so the two halves go
    through each transform stacked and the minus sign is folded in.
    """
    n_fft, g_spec, h_spec = factor
    p = b.shape[1]
    b_spec = np.fft.rfft(b[:, ::-1], n_fft)
    u = np.fft.irfft(np.einsum("sijf,jf->sif", g_spec, b_spec), n_fft)[:, :, p - 1::-1]
    return np.fft.irfft(np.einsum("sijf,sjf->if", h_spec, np.fft.rfft(u, n_fft)), n_fft)[:, :p]


def _circulant(blocks: np.ndarray) -> np.ndarray:
    """Spectra of the lag blocks' circulant embeddings, for :func:`_block_matvec`."""
    p = blocks.shape[0]
    n_fft = _fft_size(p)
    # Block (i, j) has first column blocks[:, j, i] and first row blocks[:, i, j];
    # its circulant's first column is that column, zeros, then the row reversed.
    circ = np.zeros(blocks.shape[1:] + (n_fft,))
    circ[:, :, :p] = blocks.transpose(2, 1, 0)
    circ[:, :, n_fft - p + 1:] = blocks[:0:-1].transpose(1, 2, 0)
    return np.fft.rfft(circ, n_fft)


def _block_matvec(circ_spec: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T x`` from the spectra of ``T``'s circulant embeddings (:func:`_circulant`)."""
    p = x.shape[1]
    n_fft = _fft_size(p)
    return np.fft.irfft(np.einsum("ijk,jk->ik", circ_spec, np.fft.rfft(x, n_fft)), n_fft)[:, :p]


def _factorize(gram: np.ndarray) -> tuple:
    """``(copy of gram, factor, circulant spectra)``, read-only: by :func:`_durbin` if m = 1."""
    factor = _durbin(gram[:, 0, 0]) if gram.shape[1] == 1 else _block_durbin(gram)
    kept = (gram.copy(), factor, _circulant(gram))
    for a in (kept[0], *factor[1:], kept[2]):
        a.flags.writeable = False
    return kept


def _levinson(kept: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve ``T x = rhs`` from ``kept``, laid out as :func:`_factorize` returns it.

    :func:`_block_gohberg_semencul` applies ``T^-1`` by FFTs (O(m^2 p log
    p)). The recursions are only weakly stable: the predictors are off by up
    to a relative ``cond(T) u`` and every answer inherits that. Iterative
    refinement, ``x += T^-1 (rhs - T x)`` with ``T x`` by
    :func:`_block_matvec`, brings it back to about ``u``. One signal takes one
    step: for a reference low-passed at 1 kHz the backward error without it
    reaches 1e-8, far beyond :func:`solve_spd`'s bound. Blocks take two: on
    ill-conditioned sources (condition numbers up to 3e15) one step leaves
    backward errors up to 1.5e-10, beyond the bound (2.0e-11 at 3 sources x
    512 taps), where two leave at most 4.2e-13.
    """
    _, factor, circ_spec = kept
    x = _block_gohberg_semencul(factor, rhs)
    for _ in range(1 if rhs.shape[0] == 1 else 2):
        x = x + _block_gohberg_semencul(factor, rhs - _block_matvec(circ_spec, x))
    return x


def _backward_error(gram: np.ndarray, rhs: np.ndarray, x: np.ndarray,
                    circ_spec: np.ndarray | None = None) -> float:
    """``||T x - b|| / (||T||_F ||x|| + ||b||)``, ``T x`` by FFTs; NaN for a non-finite operand.

    ``circ_spec`` are ``T``'s circulant spectra if held, else they are built.
    """
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all() and np.isfinite(x).all()):
        return math.nan
    residual = rhs - _block_matvec(_circulant(gram) if circ_spec is None else circ_spec, x)
    sq_lags = np.einsum("kij,kij->k", gram, gram)  # in T lag d > 0 appears 2 (p - d) times
    p = sq_lags.size
    norm_t = math.sqrt(2.0 * _inner(np.arange(p, 0, -1.0), sq_lags) - p * float(sq_lags[0]))
    scale = norm_t * math.sqrt(_inner(x.ravel())) + math.sqrt(_inner(rhs.ravel()))
    # scale is 0 only for rhs = x = 0, which is solved exactly.
    return math.sqrt(_inner(residual.ravel())) / scale if scale else 0.0


def solve_spd(gram: np.ndarray, rhs: np.ndarray, kept: list | None = None) -> np.ndarray:
    """Solve ``T x = rhs`` for a positive-semidefinite block-Toeplitz Gram matrix ``T``.

    ``gram`` of shape ``(p, m, m)`` is the first block row of ``T``, given as
    lag blocks: for ``m`` signals and delays ``0..p-1``, ``gram[d][i, j]`` is
    the inner product of signal ``i`` with signal ``j`` delayed by ``d``.
    ``rhs`` and the result have shape ``(m, p)`` and are ordered source-major,
    signal ``i``'s delay ``a`` at ``[i, a]``; ``T`` is the ``(m p) x (m p)``
    Gram matrix of that ordering, and it is never formed unless the check
    below fails. A plain ``m x m`` Gram matrix is one lag: ``gram[None]``
    with ``rhs`` of shape ``(m, 1)``; with ``p == 1`` the factor is the
    inverse of ``gram[0]``.

    One path serves every ``m``. Levinson recursion factors ``T``: the block
    (Whittle) recursion keeps only the predictors (:func:`_block_durbin`,
    O(p^2 m^3) time, O(p m^2) memory), and for ``m == 1`` the scalar one
    (:func:`_durbin`, O(p^2)) gives the same factor faster. The block
    Gohberg-Semencul formula applies ``T^-1`` by FFTs (O(m^2 p log p)) and
    iterative refinement follows (:func:`_levinson`). The module keeps no
    state: a caller may own a one-slot list ``kept``, from ``[None]``, that
    holds a read-only copy of ``gram``, its factor and ``T``'s circulant
    spectra, for every ``T x``; a solve reuses them while ``gram`` is
    ``np.array_equal`` to the copy, else refills the slot.

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

    Any other ``gram.ndim`` raises ``ValueError``. The path taken, and
    whether the factor was built or reused, is logged at DEBUG on the
    ``sepmetrics.linalg`` logger.
    """
    if gram.ndim != 3:
        raise ValueError(f"gram must be 3-D lag blocks, got {gram.ndim}-D")
    p, m, _ = gram.shape
    what, n = ("Levinson" if m == 1 else "block Levinson"), rhs.size
    bound = _levinson_bound(n)
    kept = kept or [None]  # no holder: a factor for this call alone
    held = kept[0]  # read once: a racing refill cannot mix two factors
    reused = held is not None and np.array_equal(held[0], gram)
    try:
        if not reused:
            kept[0] = held = _factorize(gram)
        x = _levinson(held, rhs)
    except np.linalg.LinAlgError as exc:
        _log.debug("solve_spd: %s failed (n=%d: %s); using Cholesky", what, n, exc)
    else:
        error = _backward_error(gram, rhs, x, held[2])
        if error <= bound:
            _log.debug("solve_spd: %s (n=%d, backward error %.3g, factor %s)", what, n, error,
                       "reused" if reused else "built")
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
