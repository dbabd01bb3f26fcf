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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg import toeplitz
from scipy.signal import fftconvolve

from .errors import ZeroReferenceError
from .linalg import solve_spd
from .metrics import db_ratio, prepare

__all__ = [
    "FirProjectionConfig",
    "LegacyDecomposition",
    "fir_project",
    "legacy_sdr",
    "legacy_sir",
    "legacy_sar",
]

# Dense normal equations are taps*nsrc square; keep the solve at desk scale.
MAX_PROBLEM_SIZE = 4096


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
    the sources (a block-Toeplitz Gram matrix) and solved with an SPD
    factorization plus one jitter retry.

    Raises:
        LengthMismatchError: signals of unequal length.
        ValueError: taps outside [1, L] or a problem above the size cap.
        DegenerateSourcesError: Gram matrix singular beyond jitter.
        ZeroReferenceError: all-zero reference.
    """
    est, *sources = prepare([estimate, reference, *interferers])
    ref, L = sources[0], est.size
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    taps = int(cfg.taps)
    if taps > L:
        raise ValueError(f"taps ({taps}) exceeds the signal length ({L})")
    nsrc = len(sources)
    if taps * nsrc > MAX_PROBLEM_SIZE:
        raise ValueError(
            f"taps*sources = {taps * nsrc} exceeds the cap of {MAX_PROBLEM_SIZE}"
        )

    # Correlations are alias-free for lags < taps once the FFT length covers
    # the padded support.
    n_fft = scipy.fft.next_fast_len(L + taps - 1, real=True)
    spectra = [np.fft.rfft(src, n_fft) for src in sources]
    est_spec = np.fft.rfft(est, n_fft)

    gram = np.empty((nsrc * taps, nsrc * taps))
    for i in range(nsrc):
        for j in range(i, nsrc):
            cc = np.fft.irfft(spectra[i] * np.conj(spectra[j]), n_fft)
            # block[a, b] = <delay_a(source_i), delay_b(source_j)> = cc[b - a]
            block = toeplitz(np.concatenate(([cc[0]], cc[-1:-taps:-1])), r=cc[:taps])
            gram[i * taps:(i + 1) * taps, j * taps:(j + 1) * taps] = block
            if i != j:
                gram[j * taps:(j + 1) * taps, i * taps:(i + 1) * taps] = block.T

    rhs = np.empty(nsrc * taps)
    for i in range(nsrc):
        cc = np.fft.irfft(spectra[i] * np.conj(est_spec), n_fft)
        rhs[i * taps:(i + 1) * taps] = np.concatenate(([cc[0]], cc[-1:-taps:-1]))

    coeffs = solve_spd(gram, rhs).reshape(nsrc, taps)
    if taps == 1:
        contribs = [coeffs[i, 0] * sources[i] for i in range(nsrc)]
    else:
        contribs = [fftconvolve(sources[i], coeffs[i]) for i in range(nsrc)]

    padded_len = L + taps - 1
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
    num = float(decomp.s_target @ decomp.s_target)
    err = decomp.e_interf + decomp.e_artif
    return db_ratio(num, float(err @ err))


def legacy_sir(decomp: LegacyDecomposition) -> float:
    """Target energy over interference energy."""
    num = float(decomp.s_target @ decomp.s_target)
    return db_ratio(num, float(decomp.e_interf @ decomp.e_interf))


def legacy_sar(decomp: LegacyDecomposition) -> float:
    """Projected (all sources) energy over artifact energy.

    The numerator includes the interference part as well: estimates that let
    more interference through score a *higher* SAR, one of the documented
    quirks of the original definition.
    """
    kept = decomp.s_target + decomp.e_interf
    return db_ratio(float(kept @ kept), float(decomp.e_artif @ decomp.e_artif))
