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
against Cholesky's backward-error bound, and forms the Gram matrix and solves
it on its numerical rank by pivoted Cholesky only if the check fails, as for
dependent sources. The scalar recursion factors the reference's
autocorrelation once and solves each estimate by FFTs, reusing the factor
while the autocorrelation stays exactly the same.

Right-hand sides: the ``taps`` correlation lags of the estimate with each
source come from overlap-save blocks of N points (see :func:`fir_project`
for N's rule), not from full-length transforms of the estimate. The last
reference's autocorrelation, segment spectra and peak power are kept in a
private one-entry plan, reused only for an exactly equal reference and
``taps``. Everything but that pivoted Cholesky runs on numpy alone.

Scores: SDR, SIR and SAR come from the normal equations' solution, as in
fast_bss_eval (Scheibler, arXiv 2110.06440). The projected signals are built
only where the cutoff rule of :func:`fir_project` asks for them, and dropped
before it returns: a result holds the filters and five energies, no vector.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DegenerateSourcesError,
    ProblemTooLargeError,
    SignalTooShortError,
    ZeroReferenceError,
    _check_number,
)
from .linalg import _block_matvec, _inner, _next_fast_len, solve_spd
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

# An energy from the normal equations is a signed sum of terms whose magnitudes
# add up to at most a size bound (see _normal_energies); the FFTs and sums
# round it by about u log2(n_fft) times that bound, u = 1.1e-16. It is used
# while the bound stays within this factor of the energy, a relative error near
# 1e4 * 16 u = 2e-12 (1e-11 dB), and read from the vectors beyond it or at <= 0.
_SCALAR_CUTOFF = 1e4

# Each energy's vector: a sum of (s_target, e_interf, e_artif) picked by index.
_PARTS = {"target": (0,), "interference": (1,), "artifacts": (2,), "distortion": (1, 2),
          "projected": (0, 1)}


# The last reference seen: (copy of its samples, taps, autocorrelation, its
# segments' spectra, peak power), replaced whole and never modified.
_plan: tuple | None = None


def _lags(cc: np.ndarray, taps: int) -> np.ndarray:
    """``cc[0], cc[-1], ..., cc[-(taps-1)]``: correlation at lags 0..taps-1."""
    return np.concatenate(([cc[0]], cc[-1:-taps:-1]))


def _segment_spectra(src: np.ndarray, taps: int, n_block: int) -> np.ndarray:
    """Spectra of ``src[kB - taps + 1 : kB + B]``, ``B = n_block - taps + 1``, one row per block.

    Zero outside ``[0, L)``; ``n_block`` points each, so segment ``k`` holds
    every sample that block ``k`` of the estimate meets at lags 0..taps-1.
    """
    step = n_block - taps + 1
    count = -(-src.size // step)
    padded = np.zeros((count - 1) * step + n_block)
    padded[taps - 1:taps - 1 + src.size] = src
    return np.fft.rfft(sliding_window_view(padded, n_block)[::step], n_block)


def _reference_plan(ref: np.ndarray, taps: int, n_fft: int, n_block: int) -> tuple:
    """``ref``'s autocorrelation, segment spectra and peak power: the last plan's if they match."""
    global _plan
    plan = _plan  # read once, so a concurrent replacement cannot mix two plans
    if plan is not None and plan[1] == taps and np.array_equal(plan[0], ref):
        _log.debug("fir_project: reusing the reference plan (L=%d, taps=%d)", ref.size, taps)
        return plan[2:]
    spec = np.fft.rfft(ref, n_fft)
    peak = float((np.abs(spec) ** 2).max())
    cc = np.fft.irfft(spec * np.conj(spec), n_fft)
    # Lags 0..taps-1, then -(taps-1)..-1: cc[:taps] and _lags read it as cc.
    acf = np.concatenate((cc[:taps], cc[n_fft - taps + 1:]))
    del spec, cc  # the full spectrum is not kept
    segments = _segment_spectra(ref, taps, n_block)
    ref = ref.copy()
    for a in (ref, acf, segments):
        a.flags.writeable = False
    _plan = plan = (ref, taps, acf, segments, peak)
    _log.debug("fir_project: new reference plan (L=%d, taps=%d)", ref.size, taps)
    return plan[2:]


@dataclass(frozen=True)
class FirProjectionConfig:
    """Configuration of the allowed reference deformation."""

    taps: int = 512

    def __post_init__(self):
        _check_number("taps", self.taps, integer=True)
        if self.taps < 1:
            raise ConfigError("taps", f"must be >= 1, got {self.taps}")


@dataclass(frozen=True, eq=False)
class LegacyDecomposition:
    """Result of projecting an estimate onto the delayed-sources subspace.

    Made by :func:`fir_project`. The estimate, zero-padded to ``L + taps - 1``
    samples, splits into ``s_target + e_interf + e_artif``: the projection's
    part built from the reference's delayed copies, the part built from the
    interferers', and the residual orthogonal to the whole subspace. The
    result holds ``projection_filters`` (``taps`` coefficients per source,
    the reference first) and five squared norms: ``target`` (``s_target``),
    ``interference`` (``e_interf``), ``artifacts`` (``e_artif``),
    ``distortion`` (``e_interf + e_artif``) and ``projected``
    (``s_target + e_interf``). The vectors are rebuilt from the filters::

        s_target = np.convolve(reference, d.projection_filters[0])
        e_interf = sum(np.convolve(x, h) for x, h in zip(interferers, d.projection_filters[1:]))
        e_artif = padded_estimate - s_target - e_interf
    """

    projection_filters: list[np.ndarray]
    taps: int
    target: float
    interference: float
    artifacts: float
    distortion: float
    projected: float


def _vectors(est: np.ndarray, sources: list[np.ndarray], coeffs: np.ndarray,
             n_fft: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s_target, e_interf, e_artif)`` on the padded support of ``est``.

    ``coeffs`` holds one row of filter coefficients per source. Each source's
    ``n_fft``-point spectrum is built here and dropped with its contribution.
    """
    taps = coeffs.shape[1]
    padded_len = est.size + taps - 1
    if taps == 1:
        contribs = [h[0] * src for h, src in zip(coeffs, sources)]
    else:
        # fftconvolve(sources[i], h), bit for bit: the same n_fft, the same
        # pocketfft code (scipy.fft's, numpy.fft's since numpy 2.0) and the
        # same operand order, the source's spectrum on the left.
        contribs = []
        for src, h in zip(sources, coeffs):
            prod = np.fft.rfft(src, n_fft)
            prod *= np.fft.rfft(h, n_fft)
            contribs.append(np.fft.irfft(prod, n_fft)[:padded_len])
            del prod
    s_target = contribs[0]
    e_interf = np.sum(contribs[1:], axis=0) if len(contribs) > 1 else np.zeros(padded_len)
    return s_target, e_interf, np.concatenate([est, np.zeros(taps - 1)]) - s_target - e_interf


def _scalar_energy(value: float, size: float) -> float | None:
    """``value``, or None where its rounding, about ``u * size``, may decide it."""
    return value if 0.0 < value and size <= _SCALAR_CUTOFF * value else None


def _normal_energies(est: np.ndarray, ref_peak: float, peak: float, blocks: np.ndarray,
                     rhs: np.ndarray, coeffs: np.ndarray) -> dict[str, float | None]:
    """The energies of :func:`fir_project`'s scoring; None where its cutoff rule says vectors.

    ``ref_peak`` and ``peak`` are ``sigma^2`` over the reference alone and
    over all sources, so ``ref_bound`` and ``bound`` are ``sigma ||h||``;
    non-finite inputs leave every energy to the vectors.
    """
    ref_bound = math.sqrt(ref_peak * _inner(coeffs[0]))
    bound = math.sqrt(peak * _inner(coeffs.ravel()))
    est_energy = _inner(est)
    est_norm = math.sqrt(est_energy)
    if not math.isfinite(est_norm + bound):  # NaN or inf inputs: the vectors raise
        return dict.fromkeys(_PARTS)
    t_h = _block_matvec(blocks, coeffs)
    single = coeffs.shape[0] == 1
    t_target = t_h if single else _block_matvec(blocks[:, :1, :1], coeffs[:1])
    target = _inner(coeffs[0], t_target[0])
    projected = _inner(coeffs.ravel(), t_h.ravel())
    artifacts = _scalar_energy(est_energy - 2.0 * _inner(coeffs.ravel(), rhs.ravel()) + projected,
                               (est_norm + bound) ** 2)
    if single:
        interference, distortion = 0.0, artifacts
    else:
        interference = _scalar_energy(projected - 2.0 * _inner(coeffs[0], t_h[0]) + target,
                                      (bound + ref_bound) ** 2)
        distortion = _scalar_energy(est_energy - 2.0 * _inner(coeffs[0], rhs[0]) + target,
                                    (est_norm + ref_bound) ** 2)
    return {"target": _scalar_energy(target, ref_bound ** 2), "interference": interference,
            "artifacts": artifacts, "distortion": distortion,
            "projected": _scalar_energy(projected, bound ** 2)}


def fir_project(estimate, reference, interferers=(),
                cfg: FirProjectionConfig = FirProjectionConfig()) -> LegacyDecomposition:
    """Least-squares projection of the estimate onto delayed source copies.

    The normal equations are assembled from FFT auto/cross-correlations of
    the sources and, block by block, of the estimate with them. Their Gram
    matrix is block Toeplitz for any number of sources;
    :func:`~sepmetrics.linalg.solve_spd` gets its first block row,
    ``taps`` lag blocks of ``sources x sources``, and solves by Levinson
    recursion (scalar for the reference alone, block otherwise) in
    O(taps^2 sources^3) time and O(taps sources^2) memory, the matrix never
    formed. With the reference alone the matrix is positive definite in exact
    arithmetic for any nonzero finite reference ``s``: ``h @ G @ h`` is the
    energy of the full convolution ``h * s``, and the convolution of two
    nonzero finite sequences is nonzero (its last nonzero sample is the
    product of their last nonzero samples). If the recursion fails its
    backward-error check, the ``(taps*sources)^2`` matrix is built and solved
    on its numerical rank by pivoted Cholesky, so ``taps*sources`` is kept
    within ``MAX_PROBLEM_SIZE``. For dependent sources ``s_target + e_interf``
    is unique, its split is not.

    The scores come from the normal equations ``T h = b``, without building
    ``h_i * s_i``. With ``E = ||est||^2`` and ``T h`` from one FFT product
    per lag block:

    - target ``R = h_0 . T_00 h_0``; all sources ``A = h . T h``;
    - interference ``A - 2 h_0 . (T h)_0 + R``;
    - ``||est - s_target||^2 = E - 2 h_0 . b_0 + R`` (SDR);
    - artifacts ``E - 2 h . b + A``.

    Cutoff rule: with ``sigma^2`` the peak over frequency of the sources'
    summed power spectra, ``||sum_i h_i * s_i|| <= sigma ||h||``, which bounds
    the magnitudes of every term. An energy is used while that bound on its
    terms (e.g. ``(sqrt(E) + sigma ||h||)^2`` for the artifacts) is at most
    1e4 times it, a relative rounding error near 2e-12. Beyond that, or at a
    value ``<= 0`` such as an exact copy's artifacts, it is read from
    ``s_target``, ``e_interf`` and ``e_artif``, which are then built once,
    here, and dropped before the call returns. Each such read logs
    ``fir_project: <energy> energy read from the vectors`` at DEBUG.

    Right-hand sides by overlap-save: ``b_i[d] = sum_t est[t] s_i[t - d]``
    for ``d < taps``. With ``B = N - taps + 1``, the estimate is cut into
    ``K = ceil(L / B)`` blocks of ``B`` samples, each zero-padded to ``N``
    and transformed in one batched ``rfft``. Block ``k`` meets the source
    segment ``s_i[kB - taps + 1 : kB + B]`` (zero outside ``[0, L)``), and
    ``b_i = irfft(sum_k S_ik conj(E_k), N)[taps-1::-1]``; no lag wraps
    around. ``N`` is the smallest fast length ``>= max(4 taps, 1024)``,
    capped at the fast length of ``L + taps - 1``, where ``K = 1``.

    The reference's plan holds a read-only copy of it, ``taps``, its
    autocorrelation at lags below ``taps``, its ``K`` segment spectra and
    its peak power ``sigma^2``, taken once from the full spectrum, which is
    not kept. That spectrum is rebuilt within a call only where it is still
    needed: the cross-correlations and ``sigma^2`` with interferers, and the
    vectors of the cutoff rule. The plan is reused only if ``taps`` matches
    and the prepared reference is ``np.array_equal`` to its copy, else
    replaced whole. Reuse gives the same bits as a rebuild, so no caller can
    observe the plan; both log at DEBUG.

    Raises:
        LengthMismatchError: signals of unequal length.
        SignalTooShortError: signals shorter than ``taps``.
        ProblemTooLargeError: a problem above the size cap (a ``ValueError``).
        DegenerateSourcesError: ``taps*sources`` above the padded support of
            ``L + taps - 1`` samples, or a Gram matrix indefinite to working precision.
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
        raise ProblemTooLargeError(
            f"taps*sources = {taps * nsrc} exceeds the cap of {MAX_PROBLEM_SIZE}"
        )
    if taps * nsrc > L + taps - 1:  # more delayed copies than dimensions: dependent
        raise DegenerateSourcesError(f"taps*sources = {taps * nsrc} exceeds the padded "
                                     f"support of L + taps - 1 = {L + taps - 1} samples")

    # Correlations are alias-free for lags < taps once the FFT length covers
    # the padded support, and within a block once it covers block plus lags.
    n_fft = _next_fast_len(L + taps - 1)
    n_block = min(_next_fast_len(max(4 * taps, 1024)), n_fft)
    ref_acf, ref_segments, ref_peak = _reference_plan(ref, taps, n_fft, n_block)

    # Overlap-save: est in blocks of B samples, each against the source segment
    # it meets; the circular lags taps-1..0 of every block pair never wrap.
    step = n_block - taps + 1
    whole = L // step
    est_blocks = np.empty((-(-L // step), n_block // 2 + 1), dtype=complex)
    np.fft.rfft(est[:whole * step].reshape(whole, step), n_block, out=est_blocks[:whole])
    if whole < len(est_blocks):  # a last, partial block
        np.fft.rfft(est[whole * step:], n_block, out=est_blocks[whole])
    np.conjugate(est_blocks, out=est_blocks)
    rhs = np.empty((nsrc, taps))
    for i, src in enumerate(sources):
        segments = ref_segments if i == 0 else _segment_spectra(src, taps, n_block)
        cc = np.fft.irfft(np.einsum("kf,kf->f", segments, est_blocks), n_block)
        rhs[i] = cc[taps - 1::-1]
    del est_blocks, segments  # freed before the spectra and vectors below: a lower peak

    # With interferers: the sources' full spectra, for the cross blocks and sigma^2.
    peak, spectra = ref_peak, None
    if nsrc > 1:
        spectra = [np.fft.rfft(src, n_fft) for src in sources]
        power = np.abs(spectra[0]) ** 2
        for spec in spectra[1:]:
            power += np.abs(spec) ** 2
        peak = float(power.max())
        del power

    # Lag blocks[d][i, j] = <source_i, delay_d(source_j)> = cc_ij[d] and
    # blocks[d][j, i] = cc_ij[-d]. Diagonal blocks keep the negative lags,
    # written last; they equal the positive ones only up to rounding.
    blocks = np.empty((taps, nsrc, nsrc))
    for i in range(nsrc):
        for j in range(i, nsrc):
            cc = ref_acf if i == j == 0 else (
                np.fft.irfft(spectra[i] * np.conj(spectra[j]), n_fft))
            blocks[:, i, j] = cc[:taps]
            blocks[:, j, i] = _lags(cc, taps)
    del cc, spectra  # freed before the solve and the vectors: a lower peak
    coeffs = solve_spd(blocks, rhs)
    energies = _normal_energies(est, ref_peak, peak, blocks, rhs, coeffs)
    missing = [part for part, value in energies.items() if value is None]
    if missing:
        vectors = _vectors(est, sources, coeffs, n_fft)
        for part in missing:
            _log.debug("fir_project: %s energy read from the vectors", part)
            first, *rest = (vectors[k] for k in _PARTS[part])
            energies[part] = _inner(first + rest[0] if rest else first)
    return LegacyDecomposition(list(coeffs), taps, **energies)


def legacy_sdr(decomp: LegacyDecomposition) -> float:
    """Target energy over the energy of everything else (interference + artifacts)."""
    return db_ratio(decomp.target, decomp.distortion)


def legacy_sir(decomp: LegacyDecomposition) -> float:
    """Target energy over interference energy."""
    return db_ratio(decomp.target, decomp.interference)


def legacy_sar(decomp: LegacyDecomposition) -> float:
    """Projected (all sources) energy over artifact energy.

    The numerator includes the interference part as well: estimates that let
    more interference through score a *higher* SAR, one of the documented
    quirks of the original definition.
    """
    return db_ratio(decomp.projected, decomp.artifacts)
