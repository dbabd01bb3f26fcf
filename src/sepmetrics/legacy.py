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
while the autocorrelation stays exactly the same. The last reference's
spectrum and autocorrelation are kept in a private one-entry plan, reused
only for an exactly equal reference and ``taps`` (see :func:`fir_project`).
Everything but that pivoted Cholesky runs on numpy alone.

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
    spec = np.fft.rfft(ref, n_fft)
    cc = np.fft.irfft(spec * np.conj(spec), n_fft)
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


def _vectors(est: np.ndarray, held: list[np.ndarray], coeffs: np.ndarray,
             n_fft: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s_target, e_interf, e_artif)`` on the padded support of ``est``.

    ``held`` is the sources' ``n_fft``-point spectra, or at taps 1 the sources
    themselves; ``coeffs`` holds one row of filter coefficients per source.
    """
    taps = coeffs.shape[1]
    padded_len = est.size + taps - 1
    if taps == 1:
        contribs = [h[0] * src for h, src in zip(coeffs, held)]
    else:
        # fftconvolve(sources[i], h) from the spectra, bit for bit: the same
        # n_fft and the same pocketfft code (scipy.fft's, numpy.fft's since
        # numpy 2.0). h_spec needs a name: numpy may reuse a temporary right
        # operand in place, operands swapped, which rounds differently.
        contribs = []
        for spec, h in zip(held, coeffs):
            h_spec = np.fft.rfft(h, n_fft)
            contribs.append(np.fft.irfft(spec * h_spec, n_fft)[:padded_len])
    s_target = contribs[0]
    e_interf = np.sum(contribs[1:], axis=0) if len(contribs) > 1 else np.zeros(padded_len)
    return s_target, e_interf, np.concatenate([est, np.zeros(taps - 1)]) - s_target - e_interf


def _scalar_energy(value: float, size: float) -> float | None:
    """``value``, or None where its rounding, about ``u * size``, may decide it."""
    return value if 0.0 < value and size <= _SCALAR_CUTOFF * value else None


def _normal_energies(est: np.ndarray, spectra: list[np.ndarray], blocks: np.ndarray,
                     rhs: np.ndarray, coeffs: np.ndarray) -> dict[str, float | None]:
    """The energies of :func:`fir_project`'s scoring; None where its cutoff rule says vectors.

    ``ref_bound`` and ``bound`` are ``sigma ||h||`` over the reference alone
    and over all sources; non-finite inputs leave every energy to the vectors.
    """
    power = np.abs(spectra[0]) ** 2
    ref_bound = math.sqrt(float(power.max()) * _inner(coeffs[0]))
    for spec in spectra[1:]:
        power += np.abs(spec) ** 2
    bound = math.sqrt(float(power.max()) * _inner(coeffs.ravel()))
    est_energy = _inner(est)
    est_norm = math.sqrt(est_energy)
    if not math.isfinite(est_norm + bound):  # NaN or inf inputs: the vectors raise
        return dict.fromkeys(_PARTS)
    t_h = _block_matvec(blocks, coeffs)
    single = len(spectra) == 1
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

    The reference's spectrum and autocorrelation live in a private one-entry
    plan, reused only if ``taps`` matches and the prepared reference is
    ``np.array_equal`` to the plan's copy, else replaced. Reuse gives the same
    bits as a rebuild, so no caller can observe the plan; both log at DEBUG.

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
    # the padded support.
    n_fft = _next_fast_len(L + taps - 1)
    ref_spec, ref_acf = _reference_plan(ref, taps, n_fft)
    spectra = [ref_spec] + [np.fft.rfft(src, n_fft) for src in sources[1:]]
    est_spec = np.fft.rfft(est, n_fft)

    rhs = np.empty((nsrc, taps))
    for i in range(nsrc):
        rhs[i] = _lags(np.fft.irfft(spectra[i] * np.conj(est_spec), n_fft), taps)
    del est_spec  # freed before the vectors below may be built: a lower peak

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
    coeffs = solve_spd(blocks, rhs)
    energies = _normal_energies(est, spectra, blocks, rhs, coeffs)
    missing = [part for part, value in energies.items() if value is None]
    if missing:
        vectors = _vectors(est, spectra if taps > 1 else sources, coeffs, n_fft)
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
