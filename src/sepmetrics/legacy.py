"""Legacy FIR-projection SDR.

Reimplements the classic separation-toolkit decomposition in which the
reference may be deformed by a time-invariant FIR filter before comparison:
the estimate is projected, in the least-squares sense, onto the subspace
spanned by 0..taps-1 sample delays of every true source. Whatever such a
filter bank can reproduce is forgiven; only the out-of-span residual counts
as error. With the default 512 taps this forgives drastic spectral surgery,
which is exactly the failure mode the scale-aware metrics avoid.

Conventions: correlations treat signals as zero outside [0, L), so the
projection lives on the full convolution support of L + taps - 1 samples and
all decomposition vectors have that length. For ``taps == 1`` this reduces to
plain optimal-gain rescaling and the legacy SDR coincides with SI-SDR.

Solvers: the normal equations are block Toeplitz and reach
:func:`sepmetrics.linalg.solve_spd` as taps lag blocks of the sources'
cross-correlations, whatever the number of sources. It solves them by
Levinson recursion (scalar for the reference alone, block with interferers),
O(taps^2 sources^3) time and O(taps sources^2) memory, checks the answer
against Cholesky's backward-error bound, and forms and Cholesky-factors the
Gram matrix only if the check fails. The last reference's spectrum and
autocorrelation are kept in a private one-entry plan, reused only for an
exactly equal reference and ``taps`` (see :func:`fir_project`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import SignalTooShortError, ZeroReferenceError
from .linalg import _inner, solve_spd
from .metrics import db_ratio, prepare

__all__ = [
    "FirProjectionConfig",
    "LegacyDecomposition",
    "fir_project",
    "legacy_sdr",
    "legacy_sir",
    "legacy_sar",
]

_log = logging.getLogger(__name__)

# The dense fallback's normal equations are taps*nsrc square; keep it at desk scale.
MAX_PROBLEM_SIZE = 4096


# The last reference seen: (copy of its samples, taps, rfft spectrum,
# autocorrelation), replaced whole and never modified.
_plan: tuple | None = None


def _lags(cc: np.ndarray, taps: int) -> np.ndarray:
    """``cc[0], cc[-1], ..., cc[-(taps-1)]``: correlation at lags 0..taps-1."""
    return np.concatenate(([cc[0]], cc[-1:-taps:-1]))


def _reference_plan(ref: np.ndarray, taps: int, n_fft: int) -> tuple:
    """``ref``'s spectrum and autocorrelation: the last plan's if ``ref`` and ``taps`` match."""
    global _plan
    plan = _plan  # read once, so a concurrent replacement cannot mix two plans
    if plan is not None and plan[1] == taps and np.array_equal(plan[0], ref):
        _log.debug("fir_project: reusing the reference plan (L=%d, taps=%d)", ref.size, taps)
        return plan[2:]
    spec = scipy.fft.rfft(ref, n_fft)
    cc = scipy.fft.irfft(spec * np.conj(spec), n_fft)
    # Lags 0..taps-1, then -(taps-1)..-1: cc[:taps] and _lags read it as cc.
    acf = np.concatenate((cc[:taps], cc[n_fft - taps + 1:]))
    ref = ref.copy()
    for a in (ref, spec, acf):
        a.flags.writeable = False
    _plan = (ref, taps, spec, acf)
    _log.debug("fir_project: new reference plan (L=%d, taps=%d)", ref.size, taps)
    return spec, acf


@dataclass(frozen=True)
class FirProjectionConfig:
    """Configuration of the allowed reference deformation."""

    taps: int = 512

    def __post_init__(self):
        if int(self.taps) < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")


@dataclass(eq=False)
class LegacyDecomposition:
    """Result of projecting an estimate onto the delayed-sources subspace.

    All vectors live on the padded support of ``L + taps - 1`` samples.
    ``s_target`` is the part of the projection built from the reference's
    delayed copies, ``e_interf`` the part built from the interferers', and
    ``e_artif`` the residual orthogonal to the whole subspace.
    ``projection_filters[i]`` holds the ``taps`` filter coefficients applied
    to source ``i`` (the reference first).
    """

    s_target: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray
    projection_filters: list[np.ndarray]
    taps: int


def fir_project(estimate, reference, interferers=(),
                cfg: FirProjectionConfig = FirProjectionConfig()) -> LegacyDecomposition:
    """Least-squares projection of the estimate onto delayed source copies.

    The normal equations are assembled from FFT auto/cross-correlations of
    the sources. Their Gram matrix is block Toeplitz for any number of
    sources; :func:`~sepmetrics.linalg.solve_spd` gets its first block row,
    ``taps`` lag blocks of ``sources x sources``, and solves by Levinson
    recursion (scalar for the reference alone, block otherwise) in
    O(taps^2 sources^3) time and O(taps sources^2) memory, the matrix never
    formed. With the reference alone the matrix is positive definite in exact
    arithmetic for any nonzero finite reference ``s``: ``h @ G @ h`` is the
    energy of the full convolution ``h * s``, and the convolution of two
    nonzero finite sequences is nonzero (its last nonzero sample is the
    product of their last nonzero samples). If the recursion fails its
    backward-error check, the ``(taps*sources)^2`` matrix is built and solved
    by Cholesky plus one jitter retry, so ``taps*sources`` is kept within
    ``MAX_PROBLEM_SIZE``.

    The reference's spectrum and autocorrelation live in a private one-entry
    plan, reused only if ``taps`` matches and the prepared reference is
    ``np.array_equal`` to the plan's copy, else replaced. Reuse gives the same
    bits as a rebuild, so no caller can observe the plan; both log at DEBUG.

    Raises:
        LengthMismatchError: signals of unequal length.
        SignalTooShortError: signals shorter than ``taps``.
        ValueError: a problem above the size cap.
        DegenerateSourcesError: Gram matrix singular beyond jitter.
        ZeroReferenceError: all-zero reference.
    """
    est, *sources = prepare([estimate, reference, *interferers])
    ref, L = sources[0], est.size
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    taps = int(cfg.taps)
    if taps > L:
        raise SignalTooShortError(f"taps ({taps}) exceeds the signal length ({L})")
    nsrc = len(sources)
    if taps * nsrc > MAX_PROBLEM_SIZE:
        raise ValueError(
            f"taps*sources = {taps * nsrc} exceeds the cap of {MAX_PROBLEM_SIZE}"
        )

    # Correlations are alias-free for lags < taps once the FFT length covers
    # the padded support.
    n_fft = scipy.fft.next_fast_len(L + taps - 1, real=True)
    ref_spec, ref_acf = _reference_plan(ref, taps, n_fft)
    spectra = [ref_spec] + [scipy.fft.rfft(src, n_fft) for src in sources[1:]]
    est_spec = scipy.fft.rfft(est, n_fft)

    rhs = np.empty((nsrc, taps))
    for i in range(nsrc):
        rhs[i] = _lags(scipy.fft.irfft(spectra[i] * np.conj(est_spec), n_fft), taps)

    # Lag blocks[d][i, j] = <source_i, delay_d(source_j)> = cc_ij[d] and
    # blocks[d][j, i] = cc_ij[-d]. Diagonal blocks keep the negative lags,
    # written last; they equal the positive ones only up to rounding.
    blocks = np.empty((taps, nsrc, nsrc))
    for i in range(nsrc):
        for j in range(i, nsrc):
            cc = ref_acf if i == j == 0 else (
                scipy.fft.irfft(spectra[i] * np.conj(spectra[j]), n_fft))
            blocks[:, i, j] = cc[:taps]
            blocks[:, j, i] = _lags(cc, taps)
    coeffs = solve_spd(blocks, rhs)
    padded_len = L + taps - 1
    if taps == 1:
        contribs = [coeffs[i, 0] * sources[i] for i in range(nsrc)]
    else:
        # fftconvolve(sources[i], h) from the spectra, bit for bit: the same
        # n_fft and scipy.fft. h_spec needs a name: numpy may reuse a temporary
        # right operand in place, operands swapped, which rounds differently.
        contribs = []
        for i in range(nsrc):
            h_spec = scipy.fft.rfft(coeffs[i], n_fft)
            contribs.append(scipy.fft.irfft(spectra[i] * h_spec, n_fft)[:padded_len])

    s_target = contribs[0]
    e_interf = np.sum(contribs[1:], axis=0) if nsrc > 1 else np.zeros(padded_len)
    est_padded = np.concatenate([est, np.zeros(taps - 1)])
    e_artif = est_padded - s_target - e_interf
    return LegacyDecomposition(
        s_target=s_target,
        e_interf=e_interf,
        e_artif=e_artif,
        projection_filters=[coeffs[i].copy() for i in range(nsrc)],
        taps=taps,
    )


def legacy_sdr(decomp: LegacyDecomposition) -> float:
    """Target energy over the energy of everything else (interference + artifacts)."""
    return db_ratio(_inner(decomp.s_target), _inner(decomp.e_interf + decomp.e_artif))


def legacy_sir(decomp: LegacyDecomposition) -> float:
    """Target energy over interference energy."""
    return db_ratio(_inner(decomp.s_target), _inner(decomp.e_interf))


def legacy_sar(decomp: LegacyDecomposition) -> float:
    """Projected (all sources) energy over artifact energy.

    The numerator includes the interference part as well: estimates that let
    more interference through score a *higher* SAR, one of the documented
    quirks of the original definition.
    """
    return db_ratio(_inner(decomp.s_target + decomp.e_interf), _inner(decomp.e_artif))
