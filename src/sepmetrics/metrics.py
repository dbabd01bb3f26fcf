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

import logging
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

_log = logging.getLogger(__name__)

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


def _reference_energy(ref: np.ndarray) -> float:
    """``||ref||^2``; zero (all-zero samples, or squares that all underflow) raises."""
    energy = _inner(ref)
    if energy == 0.0:
        raise ZeroReferenceError("reference signal has zero energy")
    return energy


def snr(reference, estimate) -> float:
    """Classical SNR: reference energy over energy of ``reference - estimate``.

    Returns +inf when the estimate equals the reference exactly.
    """
    ref, est = prepare([reference, estimate])
    return db_ratio(_reference_energy(ref), _inner(ref - est))


def _gain(ref: np.ndarray, est: np.ndarray) -> tuple[float, float]:
    """Optimal gain ``alpha = <est, ref>/||ref||^2`` and target energy ``||alpha*ref||^2``."""
    energy = _reference_energy(ref)
    a = _inner(est, ref) / energy
    return a, a * a * energy


def si_sdr(reference, estimate) -> float:
    """Scale-invariant SDR.

    Rescales the reference by ``alpha = <est, ref>/||ref||^2`` and returns
    ``10*log10(||alpha*ref||^2 / ||alpha*ref - est||^2)``. +inf for estimates
    collinear with the reference, -inf for nonzero estimates orthogonal to it.
    """
    ref, est = prepare([reference, estimate])
    a, num = _gain(ref, est)
    if not est.any():
        raise ZeroEstimateError("estimate signal is all zeros")
    return db_ratio(num, _inner(a * ref - est))


def sd_sdr(reference, estimate) -> float:
    """Scale-dependent SDR: rescaled target energy over the raw residual.

    Equal to ``snr + 10*log10(alpha^2)``; -inf when the optimal gain is zero.
    """
    ref, est = prepare([reference, estimate])
    _, num = _gain(ref, est)
    if not est.any():
        raise ZeroEstimateError("estimate signal is all zeros")
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
    (the inverse of the Gram matrix, then two refinement steps), its
    backward-error check, and rank-revealing pivoted Cholesky if the check fails.

    Raises:
        ZeroReferenceError: reference of zero energy.
        DegenerateSourcesError: a Gram matrix indefinite to working precision.
        LengthMismatchError: signals of unequal length.
    """
    ref, est, *others = prepare([reference, estimate, *interferers])
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

    # snr's and sd_sdr's formulas, each energy computed once, in the order the
    # three public functions run: the same error is raised first.
    energy = _reference_energy(ref)
    residual = _inner(ref - est)
    snr_db = db_ratio(energy, residual)
    si_sdr_db = si_sdr(ref, est)
    a = _inner(est, ref) / energy
    sd_sdr_db = db_ratio(a * a * energy, residual)
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


def _assign(weights: list[list[int | None]]) -> tuple[list[int], list[int], list[int]] | None:
    """Maximum-weight assignment of a square integer matrix, None entries forbidden.

    Shortest augmenting paths with potentials (Jonker & Volgenant 1987, in
    Crouse's form, IEEE TAES 52(4) 2016): one O(k^2) Dijkstra search per row,
    on Python integers, so every potential is exact and nothing overflows.
    Returns ``(cols, u, v)``, row j taking column ``cols[j]``, with integer
    duals ``u[j] + v[c] >= weights[j][c]``, equal on the assignment; None when
    every assignment uses a forbidden entry.
    """
    k = len(weights)
    u, v, col4row, row4col = [0] * k, [0] * k, [-1] * k, [-1] * k
    for row in range(k):
        dist, path, todo, visited, scanned = [math.inf] * k, [-1] * k, list(range(k)), [], []
        i, low, sink = row, 0, -1
        while sink < 0:
            visited.append(i)
            gains, ui, nearest = weights[i], u[i], math.inf  # costs are -weights
            for j in todo:
                if gains[j] is not None and (reach := low - gains[j] - ui - v[j]) < dist[j]:
                    dist[j], path[j] = reach, i
                if dist[j] < nearest:
                    nearest = dist[j]
            if nearest == math.inf:
                return None
            low = nearest
            ties = [j for j in todo if dist[j] == low]
            pick = next((j for j in ties if row4col[j] < 0), ties[0])  # a free one ends it
            todo.remove(pick)
            scanned.append(pick)
            if row4col[pick] < 0:
                sink = pick
            else:
                i = row4col[pick]
        u[row] += low
        for i in visited[1:]:
            u[i] += low - dist[col4row[i]]
        for j in scanned:
            v[j] -= low - dist[j]
        while True:  # flip the augmenting path back to the new row
            i = row4col[sink] = path[sink]
            col4row[i], sink = sink, col4row[i]
            if i == row:
                break
    return col4row, [-x for x in u], [-x for x in v]


def _complete(weights: list[list[int | None]], prefix: list[int]) -> list[int] | None:
    """Extend ``prefix`` (columns for the first rows) to a full assignment.

    The remaining rows get the completion of largest ``weights`` sum, None
    entries forbidden (the prefix's go unchecked); None if every completion hits one.
    """
    cols = [c for c in range(len(weights)) if c not in prefix]
    solved = _assign([[row[c] for c in cols] for row in weights[len(prefix):]])
    return None if solved is None else list(prefix) + [cols[c] for c in solved[0]]


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


def _integers(matrix: np.ndarray) -> tuple[list[list[int | None]], int]:
    """The finite entries as exact integers over one power-of-two denominator.

    Returns ``(weights, denominator)``, ``weights[j][c] / denominator`` equal
    to ``matrix[j, c]`` where that is finite and None where it is not.
    """
    ratios = [[x.as_integer_ratio() if math.isfinite(x) else None for x in row]
              for row in matrix.tolist()]
    denominator = max((r[1] for row in ratios for r in row if r is not None), default=1)
    return [[None if r is None else r[0] * (denominator // r[1]) for r in row]
            for row in ratios], denominator


def _best_assignment(matrix: np.ndarray) -> tuple[int, ...]:
    """The assignment an exhaustive search over ``itertools.permutations`` picks.

    An assignment scores the :func:`_mean` of its entries, NaN (mixed +-inf
    or a NaN entry) ranking as -inf; ties go to the first permutation. If an
    assignment avoids -inf/NaN and uses a +inf (:func:`_assign` on weights 1
    for +inf, 0 for finite, -inf forbidden), the best class scores +inf and
    keeps those weights; else the all-finite assignments are solved on their
    values as exact integers (:func:`_integers`); with neither, all score -inf
    and the identity is first. The class optimum is then made
    lexicographically first, row by row, by re-solving the rest.

    A candidate ``best[:j] + [c]`` is re-solved only if its own entry (j, c),
    which every completion of it uses, could be in a tie: it must be allowed,
    and in the finite class its reduced cost ``u[j] + v[c] - w[j][c] >= 0``
    must be within ``slack``. An assignment's sum falls short of the optimum's
    by exactly the sum of its entries' reduced costs, so one that ties (equal
    means after rounding) has none above ``slack``, the most the rounding of
    two means can hide.
    """
    k = matrix.shape[0]
    rows = np.arange(k)
    best, solves, skipped, won = None, 0, 0, "+inf"
    if (matrix == math.inf).any():
        weights = [[1 if x == math.inf else 0 if math.isfinite(x) else None for x in row]
                   for row in matrix.tolist()]
        best, solves = _complete(weights, []), 1
    if best is None or _mean(matrix[rows, best]) != math.inf:
        weights, denominator = _integers(matrix)
        solved, solves, won = _assign(weights), solves + 1, "finite"
        if solved is None:
            best, won = list(range(k)), "none"  # no earlier candidate: nothing to re-solve
        else:
            best, u, v = solved
            # In units of 1 / denominator, k times a mean's rounding is below
            # 2**-52 |sum| (the sum's, then the quotient's; 2**-53 each) plus
            # (k + 1) 2**-1075 where it is subnormal, so two equal means have
            # sums at most 2**-50 |optimum| + (k + 2) 2**-1074 apart.
            optimum = sum(weights[j][c] for j, c in enumerate(best))
            slack = (abs(optimum) >> 50) + ((k + 2) * denominator >> 1074) + 1

    best_score = -math.inf if won == "none" else _mean(matrix[rows, best])
    for j in range(k):
        for c in [c for c in range(best[j]) if c not in best[:j]]:
            if weights[j][c] is None or (won == "finite" and u[j] + v[c] - weights[j][c] > slack):
                skipped += 1
                continue
            candidate, solves = _complete(weights, best[:j] + [c]), solves + 1
            if candidate is not None and (score := _mean(matrix[rows, candidate])) >= best_score:
                best, best_score = candidate, score
                break
    _log.debug("evaluate_permuted: k=%d, %s class won, %d assignment solves, "
               "%d candidates skipped", k, won, solves, skipped)
    return tuple(best)


def evaluate_permuted(references, estimates, metric="si-sdr"):
    """Match estimates to references by the best-scoring assignment.

    Returns ``(assignment, reports)``: ``assignment[j]`` is the estimate index
    paired with reference ``j`` and ``reports[j]`` its :class:`MetricReport`.
    An assignment scores the mean of ``metric`` over its pairs (``math.fsum``
    over k: independent of pair order, and rescaled rather than overflowing);
    a NaN mean (mixed +-inf, or a NaN from a custom metric) ranks as -inf and
    ties go to the lexicographically first assignment. The k*k pair scores are
    computed once and the search finds what an exhaustive search over all k!
    assignments would, with no source cap, on numpy alone: a shortest-augmenting-
    path solver (Jonker-Volgenant, O(k^3)) finds an optimum on the scores as
    exact integers over one power-of-two denominator, and the first among ties
    is fixed row by row, re-solving the rest only where its duals allow a tie.
    An assignment through (j, c) falls short of the optimum's sum by at least
    the exact reduced cost ``u[j] + v[c] - w[j][c]``, so a candidate whose own
    entry (j, c) has a reduced cost above what rounding the means can hide
    (``2**-50`` times the optimum's sum, plus a subnormal floor) is skipped
    unsolved. Each search logs one DEBUG record on ``sepmetrics.metrics``: k,
    the class that won (+inf, finite or none), and the counts of solves and
    skipped candidates.
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
