"""Scale-aware separation metrics.

All ratios are formed from 64-bit squared sums (``linalg._inner``: the same
bits at any BLAS thread count) and reported as ``10*log10(num/den)`` dB with
no epsilon inside the logarithm. Degenerate ratios yield +inf/-inf sentinels
instead of clamped values:

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

import math
from dataclasses import dataclass, fields

import numpy as np

from .audio import Signal, _float_samples
from .errors import (
    CountMismatchError,
    LengthMismatchError,
    NonFiniteError,
    SampleRateMismatchError,
    ZeroEstimateError,
    ZeroReferenceError,
    ZeroTargetError,
)
from .linalg import _inner, solve_spd

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
]


def prepare(signals, *, truncate: bool = False, zero_mean: bool = False) -> list[np.ndarray]:
    """Coerce signals to 1-D float64 arrays of one common length.

    :class:`~sepmetrics.audio.Signal` inputs with different sample rates raise
    :class:`SampleRateMismatchError`; plain arrays carry no rate and are not
    checked. Unequal lengths raise :class:`LengthMismatchError` unless
    ``truncate``, which cuts every signal to the shortest; ``zero_mean`` then
    subtracts each signal's mean. Input that is not 1-D or has no integer
    or floating dtype (complex, boolean, string, bytes, object) raises
    ``ValueError``; it is never cast.
    """
    signals = list(signals)
    rates = list(dict.fromkeys(s.sample_rate_hz for s in signals if isinstance(s, Signal)))
    if len(rates) > 1:
        raise SampleRateMismatchError(
            "sample rates differ: " + " vs ".join(f"{r} Hz" for r in rates))
    arrays = [s.samples if isinstance(s, Signal) else _float_samples(s) for s in signals]
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
    non-finite input samples, or finite ones whose energy overflows float64)
    is caught once, at O(1) cost.
    """
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NonFiniteError(f"non-finite energies {num!r}/{den!r}: NaN or inf in the "
                             "inputs, or an energy beyond the float64 range")
    if num == 0.0:
        return -math.inf
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def snr(reference, estimate) -> float:
    """Classical SNR: reference energy over energy of ``reference - estimate``.

    Returns +inf when the estimate equals the reference exactly.
    """
    ref, est = prepare([reference, estimate])
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    return db_ratio(_inner(ref), _inner(ref - est))


def _gain(ref: np.ndarray, est: np.ndarray) -> tuple[float, float]:
    """Optimal gain ``alpha = <est, ref>/||ref||^2`` and target energy ``||alpha*ref||^2``."""
    energy = _inner(ref)
    a = _inner(est, ref) / energy
    return a, a * a * energy


def si_sdr(reference, estimate) -> float:
    """Scale-invariant SDR.

    Rescales the reference by ``alpha = <est, ref>/||ref||^2`` and returns
    ``10*log10(||alpha*ref||^2 / ||alpha*ref - est||^2)``. +inf for estimates
    collinear with the reference, -inf for nonzero estimates orthogonal to it.
    """
    ref, est = prepare([reference, estimate])
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    if not est.any():
        raise ZeroEstimateError("estimate signal is all zeros")
    a, num = _gain(ref, est)
    return db_ratio(num, _inner(a * ref - est))


def sd_sdr(reference, estimate) -> float:
    """Scale-dependent SDR: rescaled target energy over the raw residual.

    Equal to ``snr + 10*log10(alpha^2)``; -inf when the optimal gain is zero.
    """
    ref, est = prepare([reference, estimate])
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")
    if not est.any():
        raise ZeroEstimateError("estimate signal is all zeros")
    _, num = _gain(ref, est)
    return db_ratio(num, _inner(ref - est))


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
    interferers. Its coefficients solve the sources' Gram system, passed to
    :func:`~sepmetrics.linalg.solve_spd` as one lag block: block Levinson
    recursion (one step, the inverse of the Gram matrix), its backward-error
    check, and rank-revealing pivoted Cholesky if the check fails.

    Raises:
        ZeroReferenceError: all-zero reference.
        DegenerateSourcesError: a Gram matrix indefinite to working precision.
        LengthMismatchError: signals of unequal length.
    """
    ref, est, *others = prepare([reference, estimate, *interferers])
    if not ref.any():
        raise ZeroReferenceError("reference signal is all zeros")

    a, _ = _gain(ref, est)
    e_target = a * ref
    e_res = est - e_target
    if others:
        basis = np.stack([ref, *others])  # one row per source
        # numpy einsum, not BLAS products: the same bits at any BLAS thread count
        coeffs = solve_spd(np.einsum("in,jn->ij", basis, basis)[None],
                           np.einsum("in,n->i", basis, e_res)[:, None])
        e_interf = np.einsum("i,in->n", coeffs[:, 0], basis)
    else:
        # The residual is orthogonal to the reference by construction, so the
        # projection onto span{reference} vanishes identically.
        e_interf = np.zeros_like(e_res)
    e_artif = e_res - e_interf
    return Decomposition(a, e_target, e_interf, e_artif, e_res)


def _target_ratio(decomp: Decomposition, error: np.ndarray) -> float:
    num = _inner(decomp.e_target)
    if num == 0.0:
        raise ZeroTargetError("decomposition has a zero target component")
    return db_ratio(num, _inner(error))


def si_sir(decomp: Decomposition) -> float:
    """Scale-invariant signal-to-interference ratio of a decomposition."""
    return _target_ratio(decomp, decomp.e_interf)


def si_sar(decomp: Decomposition) -> float:
    """Scale-invariant signal-to-artifacts ratio of a decomposition."""
    return _target_ratio(decomp, decomp.e_artif)


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
        """The metrics that are not ``None``, by field name in declaration order."""
        return {f.name: value for f in fields(self)
                if (value := getattr(self, f.name)) is not None}


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
    sir_sar = ()
    if others:
        d = decompose(ref, est, others)
        sir_sar = (si_sir(d), si_sar(d))
    return MetricReport(snr_db, si_sdr_db, sd_sdr_db, min(snr_db, sd_sdr_db), *sir_sar)


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


def _complete(weights: np.ndarray, prefix: list[int]) -> list[int] | None:
    """Extend ``prefix`` (columns for the first rows) to a full assignment.

    The remaining rows get the completion of largest ``weights`` sum, with
    -inf entries forbidden; None when the prefix or every completion hits one.
    """
    from scipy.optimize import linear_sum_assignment  # its only use: not loaded on import
    if any(weights[j, c] == -math.inf for j, c in enumerate(prefix)):
        return None
    k = weights.shape[0]
    cols = np.array([c for c in range(k) if c not in prefix], dtype=np.intp)
    if cols.size == 0:
        return list(prefix)
    try:
        _, picked = linear_sum_assignment(weights[len(prefix):, cols], maximize=True)
    except ValueError:  # infeasible: no completion avoids the forbidden entries
        return None
    return list(prefix) + [int(c) for c in cols[picked]]


def _mean(values: np.ndarray) -> float:
    """``math.fsum(values) / k`` as if the exponent range were unbounded.

    An overflowing sum is redone on values scaled by ``2**-ceil(log2 k)``
    (it cannot overflow then) and the quotient scaled back, exactly.
    """
    k = len(values)
    try:
        return math.fsum(values) / k
    except OverflowError:
        shift = math.ceil(math.log2(k))
        return math.ldexp(math.fsum(math.ldexp(v, -shift) for v in values) / k, shift)


def _best_assignment(matrix: np.ndarray) -> tuple[int, ...]:
    """The assignment an exhaustive search over ``itertools.permutations`` picks.

    An assignment scores the :func:`_mean` of its entries, NaN (mixed +-inf
    or a NaN entry) ranking as -inf; ties go to the first permutation. If an
    assignment avoids -inf/NaN and uses a +inf (``linear_sum_assignment`` on
    weights 1 for +inf, 0 for finite, -inf forbidden), the best class scores
    +inf and keeps those weights; else the all-finite assignments are solved
    on their values; with neither, all score -inf and the identity is first.
    The class optimum is then made lexicographically first, row by row, by
    re-solving the rest.
    """
    k = matrix.shape[0]
    rows, finite = np.arange(k), np.isfinite(matrix)
    weights = np.where(matrix == math.inf, 1.0, np.where(finite, 0.0, -math.inf))
    best = _complete(weights, [])
    if best is None or _mean(matrix[rows, best]) != math.inf:
        weights = np.where(finite, matrix, -math.inf)
        best = _complete(weights, [])
        if best is None:
            return tuple(range(k))

    best_score = _mean(matrix[rows, best])
    for j in range(k):
        for c in [c for c in range(best[j]) if c not in best[:j]]:
            candidate = _complete(weights, best[:j] + [c])
            if candidate is not None and (score := _mean(matrix[rows, candidate])) >= best_score:
                best, best_score = candidate, score
                break
    return tuple(best)


def evaluate_permuted(references, estimates, metric="si-sdr"):
    """Match estimates to references by the best-scoring assignment.

    Returns ``(assignment, reports)``: ``assignment[j]`` is the estimate index
    paired with reference ``j`` and ``reports[j]`` its :class:`MetricReport`.
    An assignment scores the mean of ``metric`` over its pairs (``math.fsum``
    over k: independent of pair order, and rescaled rather than overflowing);
    a NaN mean (mixed +-inf, or a NaN from a custom metric) ranks as -inf and
    ties go to the lexicographically first assignment. The k*k pair scores are
    computed once and ``scipy.optimize.linear_sum_assignment`` finds what an
    exhaustive search over all k! assignments would, with no source cap.
    """
    references, estimates = list(references), list(estimates)
    if len(references) != len(estimates):
        raise CountMismatchError(f"{len(references)} references vs {len(estimates)} estimates")
    k = len(references)
    if k == 0:
        raise CountMismatchError("need at least one reference/estimate pair")
    sigs = prepare(references + estimates)
    refs, ests = sigs[:k], sigs[k:]
    fn = _resolve_metric(metric)
    matrix = np.array([[fn(r, e) for e in ests] for r in refs], dtype=np.float64)
    best = _best_assignment(matrix)
    reports = [evaluate(refs[j], ests[best[j]]) for j in range(k)]
    return best, reports
