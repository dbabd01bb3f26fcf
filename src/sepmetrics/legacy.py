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

Solvers: the normal equations are assembled from correlations, as in
fast_bss_eval (Scheibler, arXiv 2110.06440). They are block Toeplitz and
reach :func:`sepmetrics.linalg.solve_spd` as taps lag blocks of the sources'
cross-correlations, whatever the number of sources. It factors them by
Levinson recursion (the scalar one for the reference alone, the block one
with interferers), O(taps^2 sources^3) time and O(taps sources^2) memory,
and solves by the block Gohberg-Semencul formula, O(sources^2 taps log
taps) by FFTs, with iterative refinement. It checks the answer against
Cholesky's backward-error bound, and forms the Gram matrix and solves it on
its numerical rank by pivoted Cholesky only if the check fails, as for
dependent sources.

Blocks: every correlation and every energy comes from overlap-save blocks of
N points, N a power of two (Oppenheim & Schafer; see :func:`fir_project` for
N's rule), never from a transform of a whole signal. The correlation lags sum
one signal's blocks against another's segments, and the projected signals are
rebuilt block by block, so each of the five energies is a direct sum of
squares (:func:`~sepmetrics.linalg._inner`) in which nothing cancels. The
caller's config, not the module, keeps its last reference's statistics and
factor (:func:`fir_project`). Everything but that pivoted Cholesky runs on
numpy alone.

Scores: SDR, SIR and SAR are ratios of the five energies. A result holds the
filters and those energies, no vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DegenerateSourcesError,
    ProblemTooLargeError,
    SignalTooShortError,
    _check_number,
)
from .linalg import _inner, solve_spd
from .metrics import _reference_energy, db_ratio, prepare

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

# Blocks per step of the energy pass. At 512 taps its buffers, numpy's own
# included, take about 0.3 MB: less than the estimate's block spectra from
# 2 s at 16 kHz on, so the pass does not raise a call's memory peak.
_CHUNK = 4


def _segment_spectra(src: np.ndarray, taps: int, n_block: int) -> np.ndarray:
    """Spectra of ``src[kB - taps + 1 : kB + B]``, ``B = n_block - taps + 1``, one row per block.

    Zero outside ``[0, L)``; ``n_block`` points each, ``ceil((L + taps - 1) / B)``
    rows, so segment ``k`` holds every sample that block ``k`` of another
    signal meets at lags 0..taps-1, and every sample that block ``k`` of the
    padded support of ``h * src`` needs.
    """
    step = n_block - taps + 1
    count = -(-(src.size + taps - 1) // step)
    padded = np.zeros((count - 1) * step + n_block)
    padded[taps - 1:taps - 1 + src.size] = src
    return np.fft.rfft(sliding_window_view(padded, n_block)[::step], n_block)


def _block_spectra(x: np.ndarray, taps: int, n_block: int) -> np.ndarray:
    """Conjugated spectra of ``x[kB : kB + B]``, each zero-padded to ``n_block`` points.

    ``ceil(L / B)`` rows, written by one batched ``rfft`` (and one for a
    partial last block) into one array, with no padded copy of ``x``.
    """
    step = n_block - taps + 1
    whole = x.size // step
    out = np.empty((-(-x.size // step), n_block // 2 + 1), dtype=complex)
    np.fft.rfft(x[:whole * step].reshape(whole, step), n_block, out=out[:whole])
    if whole < len(out):  # a last, partial block
        np.fft.rfft(x[whole * step:], n_block, out=out[whole])
    return np.conjugate(out, out=out)


def _lag_sum(blocks: np.ndarray, segments: np.ndarray, taps: int, n_block: int) -> np.ndarray:
    """``sum_t x[t] s[t - d]`` for ``d < taps``: :func:`_block_spectra` of ``x`` against
    :func:`_segment_spectra` of ``s``.

    Circular lags taps-1..0 of each block against its segment never wrap.
    """
    cc = np.fft.irfft(np.einsum("kf,kf->f", segments[:len(blocks)], blocks), n_block)
    return cc[taps - 1::-1]


def _reference_plan(ref: np.ndarray, taps: int, n_block: int, slot: list) -> tuple:
    """``ref``'s autocorrelation, segment spectra and factor holder: ``slot``'s plan if equal."""
    plan = slot[0]  # read once, so a concurrent replacement cannot mix two plans or holders
    if plan is not None and np.array_equal(plan[0], ref):
        _log.debug("fir_project: reusing the reference plan (L=%d, taps=%d)", ref.size, taps)
        return plan[1:]
    segments = _segment_spectra(ref, taps, n_block)
    acf = _lag_sum(_block_spectra(ref, taps, n_block), segments, taps, n_block)
    ref = ref.copy()
    for a in (ref, acf, segments):
        a.flags.writeable = False
    slot[0] = plan = (ref, acf, segments, [None])
    _log.debug("fir_project: new reference plan (L=%d, taps=%d)", ref.size, taps)
    return plan[1:]


@dataclass(frozen=True)
class FirProjectionConfig:
    """Configuration of the allowed reference deformation, and its last reference's plan."""

    taps: int = 512
    # fir_project's plan (its docstring); not an option, nor part of equality or hashing.
    _plan_slot: list = field(default_factory=lambda: [None], init=False, repr=False,
                             compare=False)

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


def _energies(est: np.ndarray, segments: list[np.ndarray], coeffs: np.ndarray,
              n_block: int) -> list[float]:
    """The five energies of :class:`LegacyDecomposition`, in its field order, by blocks.

    Block ``k`` of ``h_i * s_i`` is ``irfft(S_ik rfft(h_i, N), N)[taps-1:]``:
    the reference's gives ``s_target``, the interferers' summed spectra
    ``e_interf``. ``_CHUNK`` blocks at a time, in buffers written in place,
    each energy is the sum of squares of its own vector on the padded support.
    """
    nsrc, taps = coeffs.shape
    step = n_block - taps + 1
    count = len(segments[0])
    tail = est.size + taps - 1 - (count - 1) * step  # the last block's samples in the support
    h_spec = np.fft.rfft(coeffs, n_block)
    spec = np.empty((_CHUNK, h_spec.shape[1]), dtype=complex)
    out = np.empty((min(nsrc, 2), _CHUNK, n_block))
    sums = np.zeros(5)
    for k0 in range(0, count, _CHUNK):
        n = min(_CHUNK, count - k0)
        np.multiply(segments[0][k0:k0 + n], h_spec[0], out=spec[:n])
        np.fft.irfft(spec[:n], n_block, out=out[0, :n])
        if nsrc > 1:
            np.multiply(segments[1][k0:k0 + n], h_spec[1], out=spec[:n])
            for seg, h in zip(segments[2:], h_spec[2:]):
                spec[:n] += seg[k0:k0 + n] * h
            np.fft.irfft(spec[:n], n_block, out=out[1, :n])
        ys = out[:, :n, taps - 1:]  # s_target (and e_interf) on [kB, kB + B)
        if k0 + n == count:  # past the support, h * s is rounding noise
            ys[:, -1, tail:] = 0.0
        target = projected = _inner(ys[0])
        interference = 0.0
        if nsrc > 1:
            interference = _inner(ys[1])
            ys[1] += ys[0]  # s_target + e_interf
            projected = _inner(ys[1])
        # Less the padded estimate: -(e_interf + e_artif), then -e_artif.
        part = est[k0 * step:(k0 + n) * step]
        whole = part.size // step
        ys[:, :whole] -= part[:whole * step].reshape(whole, step)
        if whole < n:
            ys[:, whole, :part.size - whole * step] -= part[whole * step:]
        distortion = _inner(ys[0])
        artifacts = _inner(ys[1]) if nsrc > 1 else distortion
        sums += (target, interference, artifacts, distortion, projected)
    return sums.tolist()


def fir_project(estimate, reference, interferers=(),
                cfg: FirProjectionConfig | None = None) -> LegacyDecomposition:
    """Least-squares projection of the estimate onto delayed source copies.

    The solver is the module docstring's: :func:`~sepmetrics.linalg.solve_spd`
    gets the block Toeplitz Gram matrix's first block row, ``taps`` lag blocks
    of ``sources x sources``, the matrix never formed. With the reference alone
    the matrix is positive definite in exact arithmetic for any nonzero finite
    reference ``s``: ``h @ G @ h`` is the energy of the full convolution
    ``h * s``, and the convolution of two nonzero finite sequences is nonzero
    (its last nonzero sample is the product of their last nonzero samples). The
    dense fallback builds the ``(taps*sources)^2`` matrix, so ``taps*sources``
    is kept within ``MAX_PROBLEM_SIZE``. For dependent sources
    ``s_target + e_interf`` is unique, its split is not.

    Overlap-save blocks: with ``B = N - taps + 1``, segment ``k`` of source
    ``s_i`` is ``s_i[kB - taps + 1 : kB + B]`` (zero outside ``[0, L)``) at
    ``N`` points, ``K = ceil((L + taps - 1) / B)`` of them, and ``x``'s
    blocks are ``x[kB : kB + B]``, zero-padded to ``N`` and transformed in one
    batched ``rfft``. ``N`` is the smallest power of two ``>= min(max(4 taps,
    1024), L + taps - 1)``. No lag and no projected sample wraps around:

    - right-hand sides ``b_i[d] = sum_t est[t] s_i[t - d]``, ``d < taps``, are
      ``irfft(sum_k S_ik conj(E_k), N)[taps-1::-1]``, ``E_k`` the estimate's blocks;
    - lag blocks ``blocks[d][i, j] = sum_t s_i[t] s_j[t - d]`` take the same
      sum with ``s_i``'s blocks in place of the estimate's. Each diagonal block
      is written once, so its negative lags equal its positive ones;
    - block ``k`` of ``y_i = h_i * s_i`` is ``irfft(S_ik rfft(h_i, N), N)[taps-1:]``.
      With ``e`` the padded estimate, the energies are direct sums over the
      ``K`` blocks, a few at a time: target ``||y_0||^2``, interference
      ``||sum_{i>0} y_i||^2``, distortion ``||e - y_0||^2``, artifacts
      ``||e - sum_i y_i||^2`` and projected ``||sum_i y_i||^2``. Nothing
      cancels, so each is as accurate as its explicit vector's energy, near
      perfect reconstruction too.

    A non-finite sample reaches every lag of the right-hand sides or lag
    blocks it is in, but not every block of the energy pass; such normal
    equations give NaN energies, so every score raises ``NonFiniteError``.

    ``cfg`` (default: a fresh config) keeps the plan of the last reference
    projected with it: a read-only copy of the reference, its autocorrelation
    at lags below ``taps``, its ``K`` segment spectra and its factor's holder,
    reused while the reference is ``np.array_equal`` to the copy, else replaced
    whole, so threads sharing a config never mix two plans. Reuse gives a
    rebuild's bits; both log at DEBUG. A config held across a reference's
    estimates builds its plan once; a dropped config takes its plan along.

    Raises:
        ConfigError: ``cfg`` neither None nor a :class:`FirProjectionConfig`.
        LengthMismatchError: signals of unequal length.
        SignalTooShortError: signals shorter than ``taps``.
        ProblemTooLargeError: a problem above the size cap (a ``ValueError``).
        DegenerateSourcesError: ``taps*sources`` above the padded support of
            ``L + taps - 1`` samples, or a Gram matrix indefinite to working precision.
        ZeroReferenceError: reference of zero energy (all-zero samples, or
            squares that all underflow).
    """
    if cfg is None:
        cfg = FirProjectionConfig()  # a plan for this call alone
    elif not isinstance(cfg, FirProjectionConfig):
        raise ConfigError("cfg", f"must be a FirProjectionConfig or None, got {cfg!r}")
    est, *sources = prepare([estimate, reference, *interferers])
    ref, L = sources[0], est.size
    _reference_energy(ref)
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

    # A block and its lags, or a block of h * s, fit in N points without aliasing.
    n_block = 1 << (min(max(4 * taps, 1024), L + taps - 1) - 1).bit_length()
    ref_acf, ref_segments, ref_holder = _reference_plan(ref, taps, n_block, cfg._plan_slot)
    segments = [ref_segments] + [_segment_spectra(src, taps, n_block) for src in sources[1:]]

    est_blocks = _block_spectra(est, taps, n_block)
    rhs = np.array([_lag_sum(est_blocks, seg, taps, n_block) for seg in segments])
    del est_blocks  # freed before the sources' blocks below: a lower peak

    # blocks[d][i, j] = <source_i, delay_d(source_j)>: source i's blocks against j's segments.
    blocks = np.empty((taps, nsrc, nsrc))
    blocks[:, 0, 0] = ref_acf
    if nsrc > 1:
        for i, src in enumerate(sources):
            src_blocks = _block_spectra(src, taps, n_block)
            for j, seg in enumerate(segments):
                if i or j:
                    blocks[:, i, j] = _lag_sum(src_blocks, seg, taps, n_block)
            del src_blocks  # freed before the next source's: a lower peak
    coeffs = solve_spd(blocks, rhs, ref_holder if nsrc == 1 else None)
    if np.isfinite(rhs).all() and np.isfinite(blocks).all():
        energies = _energies(est, segments, coeffs, n_block)
    else:  # a non-finite sample, which need not reach every block of the energy pass
        energies = [np.nan] * 5
    return LegacyDecomposition(list(coeffs), taps, *energies)


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
