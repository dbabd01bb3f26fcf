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
fast_bss_eval (Scheibler, arXiv 2110.06440); the projected signals are built
only when read, or where the cutoff rule of :func:`fir_project` asks for them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

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
_PARTS = {"target": (0,), "interf": (1,), "artif": (2,), "distortion": (1, 2), "projected": (0, 1)}


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


class LegacyDecomposition:
    """Result of projecting an estimate onto the delayed-sources subspace.

    Made by :func:`fir_project`. ``projection_filters[i]`` holds the ``taps``
    filter coefficients applied to source ``i`` (the reference first). The
    vectors live on the padded support of ``L + taps - 1`` samples:
    ``s_target`` is the part of the projection built from the reference's
    delayed copies, ``e_interf`` the part built from the interferers', and
    ``e_artif`` the residual orthogonal to the whole subspace. They are built
    when first read, from the spectra and the copy of the estimate that
    :func:`fir_project` kept, so editing an input in place afterwards changes
    nothing. The scores read the energies that :func:`fir_project` took from
    the normal equations, and build the vectors only where its cutoff rule
    sends an energy to them.
    """

    def __init__(self, projection_filters: list[np.ndarray], taps: int,
                 energies: dict[str, float | None], held: list[np.ndarray],
                 est_padded: np.ndarray, n_fft: int):
        self.projection_filters = projection_filters
        self.taps = taps
        self._energies = energies  # None where the vectors decide
        self._held = held  # the sources' spectra, or the sources themselves at taps 1
        self._est_padded = est_padded
        self._n_fft = n_fft

    @cached_property
    def _vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        padded_len = self._est_padded.size
        if self.taps == 1:
            contribs = [h[0] * src for h, src in zip(self.projection_filters, self._held)]
        else:
            # fftconvolve(sources[i], h) from the spectra, bit for bit: the same
            # n_fft and the same pocketfft code (scipy.fft's, numpy.fft's since
            # numpy 2.0). h_spec needs a name: numpy may reuse a temporary right
            # operand in place, operands swapped, which rounds differently.
            contribs = []
            for spec, h in zip(self._held, self.projection_filters):
                h_spec = np.fft.rfft(h, self._n_fft)
                contribs.append(np.fft.irfft(spec * h_spec, self._n_fft)[:padded_len])
        s_target = contribs[0]
        e_interf = np.sum(contribs[1:], axis=0) if len(contribs) > 1 else np.zeros(padded_len)
        return s_target, e_interf, self._est_padded - s_target - e_interf

    @property
    def s_target(self) -> np.ndarray:
        return self._vectors[0]

    @property
    def e_interf(self) -> np.ndarray:
        return self._vectors[1]

    @property
    def e_artif(self) -> np.ndarray:
        return self._vectors[2]

    def _energy(self, part: str) -> float:
        """The energy of ``"target"`` (``s_target``), ``"interf"``, ``"artif"``,
        ``"distortion"`` (``e_interf + e_artif``) or ``"projected"`` (``s_target + e_interf``).
        """
        value = self._energies[part]
        if value is None:
            _log.debug("fir_project: %s energy read from the vectors", part)
            first, *rest = (self._vectors[k] for k in _PARTS[part])
            value = self._energies[part] = _inner(first + rest[0] if rest else first)
        return value


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
    artif = _scalar_energy(est_energy - 2.0 * _inner(coeffs.ravel(), rhs.ravel()) + projected,
                           (est_norm + bound) ** 2)
    if single:
        interf, distortion = 0.0, artif
    else:
        interf = _scalar_energy(projected - 2.0 * _inner(coeffs[0], t_h[0]) + target,
                                (bound + ref_bound) ** 2)
        distortion = _scalar_energy(est_energy - 2.0 * _inner(coeffs[0], rhs[0]) + target,
                                    (est_norm + ref_bound) ** 2)
    return {"target": _scalar_energy(target, ref_bound ** 2), "interf": interf, "artif": artif,
            "distortion": distortion, "projected": _scalar_energy(projected, bound ** 2)}


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
    value ``<= 0`` such as an exact copy's artifacts, it is read from the
    vectors. Those are built on first read, from the spectra and a copy of
    the estimate taken here, by the same FFT code as always, so they are
    bit-identical to building them at once.

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
    return LegacyDecomposition(
        projection_filters=[coeffs[i].copy() for i in range(nsrc)],
        taps=taps,
        energies=_normal_energies(est, spectra, blocks, rhs, coeffs),
        held=[src.copy() for src in sources] if taps == 1 else spectra,
        est_padded=np.concatenate([est, np.zeros(taps - 1)]),
        n_fft=n_fft,
    )


def legacy_sdr(decomp: LegacyDecomposition) -> float:
    """Target energy over the energy of everything else (interference + artifacts)."""
    return db_ratio(decomp._energy("target"), decomp._energy("distortion"))


def legacy_sir(decomp: LegacyDecomposition) -> float:
    """Target energy over interference energy."""
    return db_ratio(decomp._energy("target"), decomp._energy("interf"))


def legacy_sar(decomp: LegacyDecomposition) -> float:
    """Projected (all sources) energy over artifact energy.

    The numerator includes the interference part as well: estimates that let
    more interference through score a *higher* SAR, one of the documented
    quirks of the original definition.
    """
    return db_ratio(decomp._energy("projected"), decomp._energy("artif"))
