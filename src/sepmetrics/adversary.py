"""Gradient-based search for a per-bin mask that minimizes SI-SDR.

A time-invariant STFT mask is parameterized by an F-dimensional weight
vector: a logistic squashes the weights into (0, 1) and the result is
renormalized to unit max gain, so at least one bin always passes. Plain
gradient descent with momentum then minimizes the SI-SDR (in dB) of the
masked signal against the clean signal itself. The headline result is the
metric gap this produces: the learned mask wipes out most of the spectrum,
yet the legacy FIR-projection SDR of the masked signal stays high because a
512-tap filter applied to the reference can mimic the same spectral surgery.

The gradient is fully analytic, propagated through the inverse STFT (a
linear map in the mask), the max-normalization (using the derivative at the
unique argmax bin, first index on exact ties), and the logistic.

The masked output is ``out = B g``, where column k of B is the trimmed iSTFT
of bin k alone. The backward step needs ``Bᵀ d_out``. :func:`objective` and
:func:`gradient` take it with the exact adjoint (an rFFT of every frame).
:func:`optimize` builds the F x F synthesis Gram ``Q = BᵀB`` and ``c = Bᵀ clean``
once, so that ``Bᵀ residual = Q g - a c`` costs one matrix-vector product per
iteration. The forward pass stays the real iSTFT of the masked spectrogram,
so every recorded SI-SDR is that of an actual masked signal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import legacy
from .audio import Signal
from .dsp import (MaskVector, Spectrogram, StftConfig, _analyze, _bin_weights, apply_mask,
                  istft, stft)
from .errors import ConfigError, NonFiniteError, _check_number
from .metrics import db_ratio

__all__ = [
    "AdversaryConfig",
    "AdversaryResult",
    "mask_from_weights",
    "objective",
    "gradient",
    "optimize",
]

_log = logging.getLogger(__name__)

# Gram gradients are taken only while (num + den) / den, i.e. ||out||^2 over
# the residual energy, stays below this (SI-SDR below about 60 dB); see optimize.
_GRAM_CUTOFF = 1e6

# Descent step and momentum of the velocity update in optimize.
STEP_SIZE = 0.5
MOMENTUM = 0.9
# Bound on the gradient's l2 norm per step. This matters for the all-ones
# starting mask, where reconstruction is near-exact and the dB-domain gradient
# norm blows up like 1/(residual energy); without the bound the first step
# saturates every logistic weight at once.
GRAD_CLIP = 5.0


@dataclass(frozen=True)
class AdversaryConfig:
    """Optimization loop settings: iteration count, STFT, legacy scoring taps."""

    iterations: int = 500
    stft: StftConfig = field(default_factory=StftConfig)
    legacy_taps: int = legacy.FirProjectionConfig.taps

    def __post_init__(self):
        if not isinstance(self.stft, StftConfig):
            raise ConfigError("stft", f"must be a StftConfig, got {self.stft!r}")
        for name, lo in (("iterations", 0), ("legacy_taps", 1)):
            value = getattr(self, name)
            _check_number(name, value, integer=True)
            if value < lo:
                raise ConfigError(name, f"must be >= {lo}, got {value!r}")


@dataclass(eq=False)
class AdversaryResult:
    """Learned weights and mask, the per-iteration SI-SDR path, final scores."""

    weights: np.ndarray
    mask: MaskVector
    trajectory: np.ndarray
    final_si_sdr_db: float
    final_legacy_sdr_db: float


def _expit(w: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-w))``; ``exp`` overflowing to inf gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-w))


def mask_from_weights(weights) -> MaskVector:
    """Logistic squash followed by renormalization to unit max gain."""
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("weights must be finite")
    v = _expit(w)
    return MaskVector(v / v.max())


def _si_sdr_parts(ref: np.ndarray, est: np.ndarray):
    """Optimal gain, target energy, residual vector, residual energy."""
    energy = float(ref @ ref)
    a = float(est @ ref) / energy
    num = a * a * energy
    residual = est - a * ref
    return a, num, residual, float(residual @ residual)


def objective(weights, clean: Signal, cfg: StftConfig = StftConfig()) -> float:
    """SI-SDR (dB) of the masked signal against the clean signal."""
    spec = stft(clean, cfg)
    out = istft(apply_mask(spec, mask_from_weights(weights))).samples
    _, num, _, den = _si_sdr_parts(clean.samples, out)
    return db_ratio(num, den)


def _istft_adjoint(spec: Spectrogram, upstream: np.ndarray) -> np.ndarray:
    """Gradient of a scalar through the iSTFT, w.r.t. real per-bin gains.

    For output gradient u, frame tau and bin k:
    d/dgain_k = sum_tau Re(conj(X[tau,k]) * scale_k * rfft(w * u_tau)[k]),
    with scale 2/N on interior bins and 1/N at DC/Nyquist.
    """
    cfg = spec.cfg
    grad_spec = _analyze(upstream / cfg.ola_gain, cfg, spec.frames.shape[0])
    scale = _bin_weights(cfg.n_bins) / cfg.window_len
    return (np.real(np.conj(spec.frames) * grad_spec) * scale).sum(axis=0)


@dataclass(eq=False)
class _Gram:
    """``q = BᵀB`` and ``c = Bᵀ clean`` of one spectrogram; ``used`` counts
    the gradients taken from them."""

    q: np.ndarray
    c: np.ndarray
    used: int = 0


def _synthesis_gram(spec: Spectrogram) -> np.ndarray:
    """``Q[k, l] = <b_k, b_l>``, b_k the trimmed iSTFT output of bin k alone.

    Output hop-block b is the sum over i < r = N/H of sub-block i of frame
    b - i, each linear in the gains through the windowed synthesis tables D_i
    (H x F: cos for Re X, -sin for Im X). So Q sums, over sub-block pairs
    (i, j) and the four Re/Im quadrants, the table products ``D_iᵀ D_j`` times
    the lagged frame products ``Z_iᵀ Z_j`` over the kept blocks, one F x F
    quadrant at a time; tables are made per sub-block to keep memory small.
    The trim drops ``pad = (r - 1) H`` samples, i.e. whole blocks; a partial
    last block adds one explicit term.
    """
    cfg = spec.cfg
    n, h, f = cfg.window_len, cfg.hop, cfg.n_bins
    r = n // h
    full, tail = divmod(spec.original_len, h)
    scale = _bin_weights(f) / n

    def tables(i):
        col = (cfg.window[i * h:(i + 1) * h] / cfg.ola_gain)[:, None] * scale
        angle = np.outer(np.arange(i * h, (i + 1) * h), np.arange(f)) % n * (2.0 * np.pi / n)
        cos = np.cos(angle)
        cos *= col
        sin = np.sin(angle, out=angle)
        sin *= -col
        sin[:, [0, -1]] = 0.0  # irfft ignores Im X at DC and Nyquist
        return cos, sin

    # kept block r - 1 + b sees frames r - 1 + b - i; rows past the last frame are zero
    rows = r - 1 + full + (tail > 0)
    frames = []
    for part in (spec.frames.real, spec.frames.imag):
        padded = np.zeros((rows, f))
        padded[:min(rows, part.shape[0])] = part[:rows]
        frames.append(padded)
    z = [[x[r - 1 - i:r - 1 - i + full] for x in frames] for i in range(r)]
    half = np.zeros((f, f))
    last = np.zeros((tail, f))
    for i in range(r):
        d_i = tables(i)
        for j in range(i, r):
            d_j = d_i if j == i else tables(j)
            for p in range(2):
                for q in range(2):
                    term = d_i[p].T @ d_j[q]
                    term *= z[i][p].T @ z[j][q]
                    if i == j:
                        term *= 0.5
                    half += term
        if tail:
            for p in range(2):
                last += frames[p][r - 1 + full - i] * d_i[p][:tail]
    gram = half + half.T
    gram += last.T @ last
    return gram


def _gradient_cached(spec: Spectrogram, clean: np.ndarray, weights: np.ndarray,
                     gram: _Gram | None = None) -> tuple[np.ndarray, float]:
    """Analytic gradient of the dB objective w.r.t. the weights, plus its value.

    With ``gram`` the adjoint of the residual is ``q g - a c``, taken when the
    residual is large enough for that difference (see :func:`optimize`).
    """
    v = _expit(weights)
    peak = int(np.argmax(v))
    gains = v / v[peak]
    out = istft(apply_mask(spec, MaskVector(gains))).samples

    a, num, residual, den = _si_sdr_parts(clean, out)
    value = db_ratio(num, den)
    # d(dB)/dy for dB = (10/ln10) (ln num - ln den)
    if gram is not None and num > 0.0 and num + den < _GRAM_CUTOFF * den:  # den > 0 too
        gram.used += 1
        d_gain = (10.0 / math.log(10.0)) * (
            (2.0 * a / num) * gram.c - (2.0 / den) * (gram.q @ gains - a * gram.c)
        )
    else:
        d_out = (10.0 / math.log(10.0)) * (
            (2.0 * a) * clean / num - 2.0 * residual / den
        )
        d_gain = _istft_adjoint(spec, d_out)

    d_v = d_gain / v[peak]
    d_v[peak] = -(float(d_gain @ v) - d_gain[peak] * v[peak]) / v[peak] ** 2
    return d_v * v * (1.0 - v), value


def gradient(weights, clean: Signal, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Exact gradient of :func:`objective` with respect to the weights."""
    w = np.asarray(weights, dtype=np.float64)
    spec = stft(clean, cfg)
    grad, _ = _gradient_cached(spec, clean.samples, w)
    return grad


def optimize(clean: Signal, cfg: AdversaryConfig = AdversaryConfig()) -> AdversaryResult:
    """Run the descent from all-zero weights and score the resulting mask.

    The loop is deterministic: velocity update ``v <- MOMENTUM*v - STEP_SIZE*g``
    on the gradient clipped to norm ``GRAD_CLIP``, recording the objective after every
    iteration. A non-finite gradient stops the loop early. The final masked
    signal is also scored with the legacy FIR-projection SDR at
    ``cfg.legacy_taps`` taps.

    Every iteration runs the real iSTFT of the masked spectrogram, so each
    trajectory value is the SI-SDR of an actual masked signal. Only the
    backward step differs from :func:`gradient`: when the loop runs, Q and c
    (see the module docstring) are built once, and the adjoint of the
    residual is ``Q g - a c``. That difference cancels. Since
    ``||out||^2 = num + den``, its relative error is about
    ``u ||out|| / ||residual|| = u sqrt((num + den) / den)``, with u = 1.1e-16
    the unit roundoff. The Gram path is therefore taken only while
    ``(num + den) / den < _GRAM_CUTOFF = 1e6``, which bounds that error near
    1e-13; on the 1-3 s fixtures the 500-iteration trajectory then stays within
    1e-12 dB of the exact path's.
    The exact adjoint runs when num or den is 0 or above the cutoff (SI-SDR
    above about 60 dB). In the default run that is only iteration 0, the
    all-ones mask at about 313 dB: its gradient is rounding noise that sets
    the first step, so it keeps the exact path's bits.

    One DEBUG record on the ``sepmetrics.adversary`` logger says either where
    a non-finite gradient stopped the loop or how many gradients took each path.
    """
    spec = stft(clean, cfg.stft)
    ref = clean.samples
    weights = np.zeros(cfg.stft.n_bins)
    velocity = np.zeros_like(weights)
    gram = None
    if cfg.iterations:
        gram = _Gram(_synthesis_gram(spec), _istft_adjoint(spec, ref))

    grad, value = _gradient_cached(spec, ref, weights, gram)
    trajectory = [value]
    for iteration in range(cfg.iterations):
        if not np.all(np.isfinite(grad)):
            # exact reconstruction corner; the objective is already recorded
            _log.debug("optimize: non-finite gradient, stopping at iteration %d of %d",
                       iteration, cfg.iterations)
            break
        norm = float(np.linalg.norm(grad))
        if norm > GRAD_CLIP:
            grad = grad * (GRAD_CLIP / norm)
        velocity = MOMENTUM * velocity - STEP_SIZE * grad
        weights = weights + velocity
        grad, value = _gradient_cached(spec, ref, weights, gram)
        trajectory.append(value)
    else:
        used = gram.used if gram else 0
        _log.debug("optimize: %d exact-adjoint and %d Gram gradients (cutoff %g)",
                   len(trajectory) - used, used, _GRAM_CUTOFF)

    mask = mask_from_weights(weights)
    out = istft(apply_mask(spec, mask))
    final_si = trajectory[-1]
    decomp = legacy.fir_project(
        out, clean, cfg=legacy.FirProjectionConfig(taps=cfg.legacy_taps)
    )
    final_legacy = legacy.legacy_sdr(decomp)
    return AdversaryResult(
        weights=weights,
        mask=mask,
        trajectory=np.asarray(trajectory),
        final_si_sdr_db=final_si,
        final_legacy_sdr_db=final_legacy,
    )
