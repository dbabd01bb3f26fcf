"""STFT analysis/synthesis, per-bin masks, noise synthesis, band selection.

The transform uses a square-root periodic Hann window for both analysis and
synthesis. The signal is zero-padded by ``window_len - hop`` on each side so
that every original sample sees the full overlap-add window sum, giving
machine-precision reconstruction for any hop dividing the window length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio import Signal
from .errors import (
    LengthMismatchError,
    SignalTooShortError,
    ZeroReferenceError,
)

__all__ = [
    "StftConfig",
    "Spectrogram",
    "MaskVector",
    "stft",
    "istft",
    "apply_mask",
    "white_noise",
    "mix_at_snr",
    "band_center",
    "band_mask",
    "band_edges",
    "hz_to_bins",
]


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: window length, hop, sqrt-Hann window.

    The hop must divide the window length with at least 2x overlap; the
    overlap-add constant is verified at construction.
    """

    window_len: int = 512
    hop: int = 128

    def __post_init__(self):
        n, h = int(self.window_len), int(self.hop)
        if n < 2 or n % 2:
            raise ValueError(f"window_len must be even and >= 2, got {n}")
        if h < 1 or n % h:
            raise ValueError(f"hop must divide window_len ({n}), got {h}")
        if n // h < 2:
            raise ValueError("need at least 2x overlap for reconstruction")
        window = _sqrt_hann(n)
        ola = window.reshape(n // h, h) ** 2
        sums = ola.sum(axis=0)
        if np.ptp(sums) > 1e-10 * sums.mean():
            raise ValueError("window does not satisfy constant overlap-add")

    @property
    def fft_size(self) -> int:
        return self.window_len

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

    @property
    def pad(self) -> int:
        return self.window_len - self.hop

    @property
    def window(self) -> np.ndarray:
        return _sqrt_hann(self.window_len)

    @property
    def ola_gain(self) -> float:
        """Steady-state sum of squared windows across overlapping frames."""
        return self.window_len / (2.0 * self.hop)

    def frame_count(self, length: int) -> int:
        return -(-(length + self.pad) // self.hop)


@functools.lru_cache(maxsize=8)
def _sqrt_hann(n: int) -> np.ndarray:
    # sqrt of the periodic Hann window is exactly a half-period sine
    w = np.sin(np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


@dataclass(eq=False)
class Spectrogram:
    """Complex STFT frames (T x F) plus the analysis configuration."""

    frames: np.ndarray
    cfg: StftConfig
    original_len: int
    sample_rate_hz: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2 or frames.shape[1] != self.cfg.n_bins:
            raise ValueError(
                f"frames must be T x {self.cfg.n_bins}, got {frames.shape}"
            )
        if not np.all(np.isfinite(frames)):
            raise ValueError("spectrogram entries must be finite")
        self.frames = frames

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]

    @property
    def bin_hz(self) -> float:
        return self.sample_rate_hz / self.cfg.fft_size


@dataclass(eq=False)
class MaskVector:
    """Per-frequency-bin real gain in [0, 1], applied identically to every frame."""

    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        if gains.ndim != 1:
            raise ValueError("mask gains must be one-dimensional")
        if not np.all(np.isfinite(gains)) or gains.min() < 0.0 or gains.max() > 1.0:
            raise ValueError("mask gains must lie in [0, 1]")
        self.gains = gains

    def __len__(self) -> int:
        return self.gains.size


def _analyze(x: np.ndarray, cfg: StftConfig, n_frames: int) -> np.ndarray:
    """Pad ``x`` by ``cfg.pad``, cut ``n_frames`` hop-spaced frames, window, rFFT."""
    buf = np.zeros((n_frames - 1) * cfg.hop + cfg.window_len)
    buf[cfg.pad:cfg.pad + x.size] = x
    view = np.lib.stride_tricks.sliding_window_view(buf, cfg.window_len)
    return np.fft.rfft(view[:: cfg.hop][:n_frames] * cfg.window, axis=1)


def stft(signal: Signal, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Analyze a signal into windowed rFFT frames.

    Raises:
        SignalTooShortError: fewer samples than one window.
    """
    x = signal.samples
    if x.size < cfg.window_len:
        raise SignalTooShortError(
            f"need at least window_len={cfg.window_len} samples, got {x.size}"
        )
    frames = _analyze(x, cfg, cfg.frame_count(x.size))
    return Spectrogram(frames, cfg, x.size, signal.sample_rate_hz)


def istft(spec: Spectrogram) -> Signal:
    """Overlap-add synthesis with the analysis window; trims to the original length."""
    cfg = spec.cfg
    n_frames = spec.frames.shape[0]
    frames = np.fft.irfft(spec.frames, n=cfg.window_len, axis=1) * cfg.window
    size = max((n_frames - 1) * cfg.hop + cfg.window_len, cfg.pad + spec.original_len)
    buf = np.zeros(size)
    for t in range(n_frames):
        buf[t * cfg.hop:t * cfg.hop + cfg.window_len] += frames[t]
    out = buf[cfg.pad:cfg.pad + spec.original_len] / cfg.ola_gain
    return Signal(out, spec.sample_rate_hz)


def apply_mask(spec: Spectrogram, mask: MaskVector) -> Spectrogram:
    """Multiply every frame elementwise by the mask gains."""
    if len(mask) != spec.n_bins:
        raise LengthMismatchError(
            f"mask has {len(mask)} gains, spectrogram has {spec.n_bins} bins"
        )
    return Spectrogram(
        spec.frames * mask.gains, spec.cfg, spec.original_len, spec.sample_rate_hz
    )


def white_noise(length: int, seed: int, sample_rate_hz: int = 16000) -> Signal:
    """Zero-mean unit-variance Gaussian noise from a seeded PCG64 generator.

    The stream is fully determined by the seed (PCG64 with the ziggurat
    normal transform), so experiments are reproducible.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    return Signal(rng.standard_normal(length), sample_rate_hz)


def _bin_weights(n_bins: int) -> np.ndarray:
    # interior rFFT bins stand in for their conjugate twins
    weights = np.full(n_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    return weights


def band_spectral_energy(spec: Spectrogram, band: tuple[int, int]) -> float:
    """Total spectral energy inside an inclusive bin range."""
    lo, hi = band
    power = np.abs(spec.frames[:, lo:hi + 1]) ** 2
    return float((power * _bin_weights(spec.n_bins)[lo:hi + 1]).sum())


def mix_at_snr(clean: Signal, noise: Signal, snr_db: float,
               band: tuple[int, int] | None = None,
               cfg: StftConfig = StftConfig()) -> tuple[Signal, Signal]:
    """Rescale ``noise`` for a target clean-to-noise ratio, then add it.

    Energies are measured over the whole signal or, when ``band`` is given as
    an inclusive STFT bin range, inside that band only (the "local" SNR).
    Returns ``(mixture, scaled_noise)``.
    """
    if len(clean) != len(noise):
        raise LengthMismatchError(
            f"clean has {len(clean)} samples, noise has {len(noise)}"
        )
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError("clean and noise sample rates differ")
    if band is None:
        clean_e = float(clean.samples @ clean.samples)
        noise_e = float(noise.samples @ noise.samples)
    else:
        clean_e = band_spectral_energy(stft(clean, cfg), band)
        noise_e = band_spectral_energy(stft(noise, cfg), band)
    if clean_e == 0.0:
        raise ZeroReferenceError("clean signal has no energy in the measured band")
    if noise_e == 0.0:
        raise ValueError("noise has no energy in the measured band; cannot scale")
    scale = np.sqrt(clean_e / (10.0 ** (snr_db / 10.0) * noise_e))
    scaled = Signal(noise.samples * scale, noise.sample_rate_hz)
    mixture = Signal(clean.samples + scaled.samples, clean.sample_rate_hz)
    return mixture, scaled


def band_center(spec: Spectrogram, mode: str = "median-energy") -> int:
    """Locate a band center from time-averaged spectra.

    ``median-energy``: smallest bin where the cumulative time-averaged energy
    reaches half the total. ``max-magnitude``: argmax of the time-averaged
    magnitude (smallest index on ties).
    """
    mag = np.abs(spec.frames)
    if not mag.any():
        raise ZeroReferenceError("cannot locate a band center in an all-zero spectrogram")
    if mode == "median-energy":
        per_bin = (mag ** 2 * _bin_weights(spec.n_bins)).mean(axis=0)
        cum = np.cumsum(per_bin)
        return int(np.searchsorted(cum, cum[-1] / 2.0))
    if mode == "max-magnitude":
        return int(np.argmax(mag.mean(axis=0)))
    raise ValueError(f"unknown mode {mode!r}")


def band_edges(center: int, width_bins: int, n_bins: int,
               preserve_width: bool = False) -> tuple[int, int]:
    """Inclusive bin range of width ``width_bins`` around ``center``.

    Clips at the spectrum edges; with ``preserve_width`` the band is shifted
    inward instead so the bin count is kept whenever it fits.
    """
    if width_bins < 1:
        raise ValueError("width_bins must be >= 1")
    width = min(width_bins, n_bins)
    lo = center - (width - 1) // 2
    hi = lo + width - 1
    if preserve_width:
        if lo < 0:
            lo, hi = 0, width - 1
        elif hi > n_bins - 1:
            hi, lo = n_bins - 1, n_bins - width
    else:
        lo, hi = max(lo, 0), min(hi, n_bins - 1)
    return lo, hi


def band_mask(center: int, width_bins: int, kind: str, n_bins: int,
              stop_gain: float = 0.0) -> MaskVector:
    """Build a bandpass (1 inside, 0 outside) or bandstop (``stop_gain``
    inside, 1 outside) mask, clipped at the spectrum edges."""
    if not 0.0 <= stop_gain <= 1.0:
        raise ValueError("stop_gain must lie in [0, 1]")
    lo, hi = band_edges(center, width_bins, n_bins)
    if kind == "bandpass":
        gains = np.zeros(n_bins)
        gains[lo:hi + 1] = 1.0
    elif kind == "bandstop":
        gains = np.ones(n_bins)
        gains[lo:hi + 1] = stop_gain
    else:
        raise ValueError(f"unknown band mask kind {kind!r}")
    return MaskVector(gains)


def hz_to_bins(width_hz: float, sample_rate_hz: int, fft_size: int) -> int:
    """Convert a bandwidth in Hz to an odd bin count (symmetric about a center bin).

    Rounds to the nearest integer first; an even result moves to whichever odd
    neighbour is closer to the exact value (upward on exact ties).
    """
    exact = width_hz / (sample_rate_hz / fft_size)
    rounded = int(round(exact))
    if rounded % 2 == 1:
        return max(rounded, 1)
    return max(rounded + 1 if exact >= rounded else rounded - 1, 1)
