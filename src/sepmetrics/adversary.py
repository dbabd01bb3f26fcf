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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import legacy
from .audio import Signal
from .dsp import MaskVector, Spectrogram, StftConfig, _analyze, apply_mask, istft, stft
from .metrics import db_ratio

__all__ = [
    "AdversaryConfig",
    "AdversaryResult",
    "mask_from_weights",
    "objective",
    "gradient",
    "optimize",
]


@dataclass(frozen=True)
class AdversaryConfig:
    """Optimization loop settings.

    ``grad_clip`` bounds the gradient's l2 norm per step. This matters for
    the all-ones starting mask, where reconstruction is near-exact and the
    dB-domain gradient norm blows up like 1/(residual energy); without the
    bound the first step saturates every logistic weight at once.
    ``seed`` does not affect the loop itself (it is deterministic); it picks
    the fixture when the caller has to synthesize an input.
    """

    iterations: int = 500
    step_size: float = 0.5
    momentum: float = 0.9
    seed: int = 0
    stft: StftConfig = field(default_factory=StftConfig)
    grad_clip: float = 5.0
    legacy_taps: int = 512

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.grad_clip <= 0.0:
            raise ValueError("grad_clip must be positive")


@dataclass(eq=False)
class AdversaryResult:
    """Learned weights and mask, the per-iteration SI-SDR path, final scores."""

    weights: np.ndarray
    mask: MaskVector
    trajectory: np.ndarray
    final_si_sdr_db: float
    final_legacy_sdr_db: float


def mask_from_weights(weights) -> MaskVector:
    """Logistic squash followed by renormalization to unit max gain."""
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    v = expit(w)
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
    scale = np.full(cfg.n_bins, 2.0 / cfg.window_len)
    scale[0] = scale[-1] = 1.0 / cfg.window_len
    return (np.real(np.conj(spec.frames) * grad_spec) * scale).sum(axis=0)


def _gradient_cached(spec: Spectrogram, clean: np.ndarray,
                     weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Analytic gradient of the dB objective w.r.t. the weights, plus its value."""
    v = expit(weights)
    peak = int(np.argmax(v))
    gains = v / v[peak]
    out = istft(apply_mask(spec, MaskVector(gains))).samples

    a, num, residual, den = _si_sdr_parts(clean, out)
    value = db_ratio(num, den)
    # d(dB)/dy for dB = (10/ln10) (ln num - ln den)
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

    The loop is deterministic: velocity update ``v <- momentum*v - step*g``
    on the (norm-clipped) gradient, recording the objective after every
    iteration. The final masked signal is also scored with the legacy
    FIR-projection SDR at ``cfg.legacy_taps`` taps.
    """
    spec = stft(clean, cfg.stft)
    ref = clean.samples
    weights = np.zeros(cfg.stft.n_bins)
    velocity = np.zeros_like(weights)

    grad, value = _gradient_cached(spec, ref, weights)
    trajectory = [value]
    for _ in range(cfg.iterations):
        if not np.all(np.isfinite(grad)):
            break  # exact reconstruction corner; the objective is already recorded
        norm = float(np.linalg.norm(grad))
        if norm > cfg.grad_clip:
            grad = grad * (cfg.grad_clip / norm)
        velocity = cfg.momentum * velocity - cfg.step_size * grad
        weights = weights + velocity
        grad, value = _gradient_cached(spec, ref, weights)
        trajectory.append(value)

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
