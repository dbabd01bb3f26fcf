"""Scale-aware separation metrics.

All ratios are formed from exact 64-bit accumulated squared sums and reported
as ``10*log10(num/den)`` dB with no epsilon inside the logarithm. Degenerate
ratios yield +inf/-inf sentinels instead of clamped values:

* ``snr``     -- energy of the reference over energy of the raw residual.
* ``si_sdr``  -- scale-invariant SDR: the reference is rescaled by the
  optimal gain ``alpha = <estimate, reference> / ||reference||^2`` before the
  residual is measured, so estimate gain drops out entirely.
* ``sd_sdr``  -- scale-dependent SDR: same rescaled target energy, but the
  residual keeps the rescaling error, penalizing gain mismatch.
* ``decompose`` / ``si_sir`` / ``si_sar`` -- orthogonal split of the residual
  into an in-span (interference) part and an out-of-span (artifact) part,
  with ``10^(-SDR/10) = 10^(-SIR/10) + 10^(-SAR/10)`` holding exactly.

Functions accept :class:`~sepmetrics.audio.Signal` objects or plain 1-D
arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .audio import Signal
from .errors import (
    CountMismatchError,
    LengthMismatchError,
    NonFiniteError,
    ZeroEstimateError,
    ZeroReferenceError,
    ZeroTargetError,
)
from .linalg import solve_spd

__all__ = [
    "Decomposition",
    "MetricReport",
    "prepare",
    "snr",
    "si_sdr",
    "sd_sdr",
    "decompose",
    "si_sir",
    "si_sar",
    "evaluate",
    "evaluate_permuted",
    "MAX_PERMUTATION_SOURCES",
]

MAX_PERMUTATION_SOURCES = 8


def _samples(x) -> np.ndarray:
    if isinstance(x, Signal):
        return x.samples
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {arr.shape}")
    return arr


def prepare(signals, *, truncate: bool = False, zero_mean: bool = False) -> list[np.ndarray]:
    """Coerce signals to 1-D float64 arrays of one common length.

    Unequal lengths raise :class:`LengthMismatchError` unless ``truncate``,
    which cuts every signal to the shortest; ``zero_mean`` then subtracts each
    signal's mean.
    """
    arrays = [_samples(s) for s in signals]
    n = min(a.size for a in arrays)
    if any(a.size != n for a in arrays):
        if not truncate:
            raise LengthMismatchError(
                f"signal lengths differ: {', '.join(str(a.size) for a in arrays)}"
            )
        arrays = [a[:n] for a in arrays]
    if zero_mean:
        arrays = [a - a.mean() for a in arrays]
    return arrays


def db_ratio(num: float, den: float) -> float:
    """10*log10(num/den) with sentinel handling: zero num -> -inf, zero den -> +inf.

    Every metric ratio passes through here, so a NaN or infinite energy (from
    non-finite input samples) is caught once, at O(1) cost.
    """
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NonFiniteError(f"non-finite energies {num!r}/{den!r}: NaN or inf in the inputs")
    if num == 0.0:
        return -math.inf
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def snr(reference, estimate, truncate: bool = False) -> float:
    """Classical SNR: reference energy over energy of ``reference - estimate``.

    Returns +inf when the estimate equals the reference exactly.
    """
    ref, est = prepare([reference, estimate], truncate=truncate)
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    # same reduction for both energies, so snr(s, 0) is exactly 0 dB
    return db_ratio(float(np.sum(ref ** 2)), float(np.sum((ref - est) ** 2)))


def _alpha(ref: np.ndarray, est: np.ndarray) -> float:
    return float(est @ ref) / float(ref @ ref)


def si_sdr(reference, estimate, truncate: bool = False) -> float:
    """Scale-invariant SDR.

    Rescales the reference by ``alpha = <est, ref>/||ref||^2`` and returns
    ``10*log10(||alpha*ref||^2 / ||alpha*ref - est||^2)``. +inf for estimates
    collinear with the reference, -inf for nonzero estimates orthogonal to it.
    """
    ref, est = prepare([reference, estimate], truncate=truncate)
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    if not est.any():
        raise ZeroEstimateError("estimate signal is all zeros")
    a = _alpha(ref, est)
    num = a * a * float(ref @ ref)
    den = float(np.sum((a * ref - est) ** 2))
    return db_ratio(num, den)


def sd_sdr(reference, estimate, truncate: bool = False) -> float:
    """Scale-dependent SDR: rescaled target energy over the raw residual.

    Equal to ``snr + 10*log10(alpha^2)``; -inf when the optimal gain is zero.
    """
    ref, est = prepare([reference, estimate], truncate=truncate)
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    if not est.any():
        raise ZeroEstimateError("estimate signal is all zeros")
    a = _alpha(ref, est)
    num = a * a * float(ref @ ref)
    den = float(np.sum((ref - est) ** 2))
    return db_ratio(num, den)


@dataclass(eq=False)
class Decomposition:
    """Orthogonal split of an estimate against a reference and interferers.

    ``estimate = e_target + e_interf + e_artif`` where ``e_target`` is the
    optimally rescaled reference, ``e_interf`` lies in the span of all true
    sources, and ``e_artif`` is orthogonal to that span.
    """

    alpha: float
    e_target: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray
    e_res: np.ndarray

    @property
    def beta(self) -> float:
        """Inverse gain, i.e. the estimate rescaling of the dual definition."""
        if self.alpha == 0.0:
            raise ValueError("beta is undefined when alpha == 0")
        return 1.0 / self.alpha


def decompose(reference, estimate, interferers=()) -> Decomposition:
    """Split an estimate into target, interference, and artifact components.

    ``e_interf`` is the orthogonal projection of the residual
    ``estimate - alpha*reference`` onto the span of the reference and all
    interferers, obtained by solving the sources' Gram system.

    Raises:
        ZeroReferenceError: all-zero reference.
        DegenerateSourcesError: the source set is linearly dependent.
        LengthMismatchError: signals of unequal length.
    """
    ref, est, *others = prepare([reference, estimate, *interferers])
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")

    a = _alpha(ref, est)
    e_target = a * ref
    e_res = est - e_target
    if others:
        basis = np.column_stack([ref, *others])
        coeffs = solve_spd(basis.T @ basis, basis.T @ e_res)
        e_interf = basis @ coeffs
    else:
        # The residual is orthogonal to the reference by construction, so the
        # projection onto span{reference} vanishes identically.
        e_interf = np.zeros_like(e_res)
    e_artif = e_res - e_interf
    return Decomposition(a, e_target, e_interf, e_artif, e_res)


def si_sir(decomp: Decomposition) -> float:
    """Scale-invariant signal-to-interference ratio of a decomposition."""
    num = float(decomp.e_target @ decomp.e_target)
    if num == 0.0:
        raise ZeroTargetError("decomposition has a zero target component")
    return db_ratio(num, float(decomp.e_interf @ decomp.e_interf))


def si_sar(decomp: Decomposition) -> float:
    """Scale-invariant signal-to-artifacts ratio of a decomposition."""
    num = float(decomp.e_target @ decomp.e_target)
    if num == 0.0:
        raise ZeroTargetError("decomposition has a zero target component")
    return db_ratio(num, float(decomp.e_artif @ decomp.e_artif))


@dataclass(frozen=True)
class MetricReport:
    """All scalar metrics (dB, possibly +-inf) for one reference/estimate pair."""

    snr_db: float
    si_sdr_db: float
    sd_sdr_db: float
    min_snr_sdsdr_db: float
    si_sir_db: float | None = None
    si_sar_db: float | None = None

    def as_dict(self) -> dict[str, float]:
        out = {
            "snr_db": self.snr_db,
            "si_sdr_db": self.si_sdr_db,
            "sd_sdr_db": self.sd_sdr_db,
            "min_snr_sdsdr_db": self.min_snr_sdsdr_db,
        }
        if self.si_sir_db is not None:
            out["si_sir_db"] = self.si_sir_db
            out["si_sar_db"] = self.si_sar_db
        return out


def evaluate(reference, estimate, interferers=(), *,
             zero_mean: bool = False, truncate: bool = False) -> MetricReport:
    """Compute every metric for one pair; SIR/SAR only when interferers are given.

    Args:
        zero_mean: subtract each signal's mean first (off by default; the
            plain formulas act on raw vectors).
        truncate: allow unequal lengths by truncating to the shortest signal.
    """
    ref, est, *others = prepare([reference, estimate, *interferers],
                                truncate=truncate, zero_mean=zero_mean)

    snr_db = snr(ref, est)
    si_sdr_db = si_sdr(ref, est)
    sd_sdr_db = sd_sdr(ref, est)
    report = {
        "snr_db": snr_db,
        "si_sdr_db": si_sdr_db,
        "sd_sdr_db": sd_sdr_db,
        "min_snr_sdsdr_db": min(snr_db, sd_sdr_db),
    }
    if others:
        d = decompose(ref, est, others)
        report["si_sir_db"] = si_sir(d)
        report["si_sar_db"] = si_sar(d)
    return MetricReport(**report)


_METRICS = {
    "snr": snr,
    "si-sdr": si_sdr,
    "si_sdr": si_sdr,
    "sd-sdr": sd_sdr,
    "sd_sdr": sd_sdr,
}


def _resolve_metric(metric):
    if callable(metric):
        return metric
    try:
        return _METRICS[str(metric).lower()]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(set(_METRICS))} "
            "or pass a callable"
        ) from None


def evaluate_permuted(references, estimates, metric="si-sdr"):
    """Match estimates to references by exhaustive permutation search.

    Scores every assignment by the mean of ``metric`` over its pairs and
    returns ``(assignment, reports)`` where ``assignment[j]`` is the estimate
    index paired with reference ``j`` and ``reports[j]`` the corresponding
    :class:`MetricReport`. Exhaustive search guarantees the exact argmax for
    any metric; the source count is capped at ``MAX_PERMUTATION_SOURCES``.
    """
    refs = [_samples(r) for r in references]
    ests = [_samples(e) for e in estimates]
    if len(refs) != len(ests):
        raise CountMismatchError(f"{len(refs)} references vs {len(ests)} estimates")
    k = len(refs)
    if k == 0:
        raise CountMismatchError("need at least one reference/estimate pair")
    if k > MAX_PERMUTATION_SOURCES:
        raise ValueError(
            f"{k} sources exceed the exhaustive-search cap of {MAX_PERMUTATION_SOURCES}"
        )
    fn = _resolve_metric(metric)
    matrix = np.array([[fn(r, e) for e in ests] for r in refs])

    best_perm, best_score = None, -math.inf
    for perm in itertools.permutations(range(k)):
        score = float(np.mean(matrix[np.arange(k), perm]))
        if math.isnan(score):  # mixed +-inf pairs rank below any finite mean
            score = -math.inf
        if score > best_score:
            best_perm, best_score = perm, score
    reports = [evaluate(refs[j], ests[best_perm[j]]) for j in range(k)]
    return best_perm, reports
