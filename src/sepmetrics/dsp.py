"""STFT analysis/synthesis, per-bin masks, noise synthesis, band selection.

The transform uses a square-root periodic Hann window for both analysis and
synthesis. The signal is zero-padded by ``window_len - hop`` on each side so
that every original sample sees the full overlap-add window sum, giving
machine-precision reconstruction for any hop dividing the window length.

The masked synthesis ``B g = istft(apply_mask(spec, g))`` is linear in the
gains g; its adjoint (``_istft_adjoint``) and Gram matrix ``BᵀB``
(``_synthesis_gram``) live here beside it, for the adversarial mask search.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio import Signal
from .errors import (
    ConfigError,
    LengthMismatchError,
    NonFiniteError,
    SampleRateMismatchError,
    SignalTooShortError,
    ZeroReferenceError,
    _check_number,
)
from .linalg import _inner

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
    "band_edges",
    "hz_to_bins",
]


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: window length, hop, sqrt-Hann window.

    The hop must divide the window length with at least 2x overlap, which is
    all constant overlap-add needs: the R = N/H >= 2 squared windows
    ``sin²(πn/N)`` covering a sample are R phases spaced π/R apart, summing
    to exactly R/2 (:attr:`ola_gain`). So construction builds no window.
    """

    window_len: int = 512
    hop: int = 128

    def __post_init__(self):
        _check_number("window_len", self.window_len, integer=True)
        _check_number("hop", self.hop, integer=True)
        n, h = int(self.window_len), int(self.hop)
        if n < 2 or n % 2:
            raise ConfigError("window_len", f"must be even and >= 2, got {n}")
        if h < 1 or n % h:
            raise ConfigError("hop", f"must divide window_len ({n}), got {h}")
        if n // h < 2:
            raise ConfigError("hop", "need at least 2x overlap for reconstruction")

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
            raise ConfigError("frames", f"must be T x {self.cfg.n_bins}, got {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise NonFiniteError("spectrogram entries must be finite")
        self.frames = frames

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


@dataclass(eq=False)
class MaskVector:
    """Per-frequency-bin real gain in [0, 1], applied identically to every frame.

    A NaN or infinite gain raises :class:`NonFiniteError`; a gain outside
    [0, 1], or gains that are not 1-D or are empty, raise :class:`ConfigError`.
    """

    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        if gains.ndim != 1 or not gains.size:
            raise ConfigError("gains", "must be one-dimensional and non-empty, "
                                       f"got shape {gains.shape}")
        if not np.all(np.isfinite(gains)):
            raise NonFiniteError("mask gains must be finite")
        if gains.min() < 0.0 or gains.max() > 1.0:
            raise ConfigError("gains", "must lie in [0, 1]")
        self.gains = gains

    def __len__(self) -> int:
        return self.gains.size


def _analyze(x: np.ndarray, cfg: StftConfig, n_frames: int) -> np.ndarray:
    """Pad ``x`` by ``cfg.pad``, cut ``n_frames`` hop-spaced frames, window, rFFT.

    The buffer is sized as :func:`istft` sizes its output, so fewer frames than
    :meth:`StftConfig.frame_count` leave the samples past the last one unread.
    """
    buf = np.zeros(max((n_frames - 1) * cfg.hop + cfg.window_len, cfg.pad + x.size))
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
    frames = np.fft.irfft(spec.frames, n=cfg.window_len, axis=1)
    frames *= cfg.window
    size = max((n_frames - 1) * cfg.hop + cfg.window_len, cfg.pad + spec.original_len)
    # Frame t covers hop-sized blocks t..t+r-1, its sub-block i landing on block
    # t+i. Adding sub-blocks from the last to the first gives every sample its
    # frames in ascending order, the same sums as a frame-by-frame loop.
    r = cfg.window_len // cfg.hop
    blocks = np.zeros((-(-size // cfg.hop), cfg.hop))
    parts = frames.reshape(n_frames, r, cfg.hop)
    for i in reversed(range(r)):
        blocks[i:i + n_frames] += parts[:, i]
    out = blocks.ravel()[cfg.pad:cfg.pad + spec.original_len]
    out /= cfg.ola_gain
    return Signal(out, spec.sample_rate_hz)


def apply_mask(spec: Spectrogram, mask: MaskVector) -> Spectrogram:
    """Multiply every frame elementwise by the mask gains.

    Trusts the :class:`Spectrogram` invariant (finite frames) and does not
    re-scan: finite frames times gains in [0, 1] are finite. Frames written
    after construction are the caller's to keep finite.
    """
    if len(mask) != spec.n_bins:
        raise LengthMismatchError(
            f"mask has {len(mask)} gains, spectrogram has {spec.n_bins} bins"
        )
    out = copy.copy(spec)  # skips __post_init__ and its finiteness scan
    out.frames = spec.frames * mask.gains
    return out


def _bin_weights(n_bins: int, n: int = 1) -> np.ndarray:
    """2/n on interior rFFT bins, which stand in for their conjugate twins, 1/n at
    DC and Nyquist: with ``n = window_len``, irfft's synthesis weights."""
    weights = np.full(n_bins, 2.0 / n)
    weights[0] = weights[-1] = 1.0 / n
    return weights


def _istft_adjoint(spec: Spectrogram, upstream: np.ndarray) -> np.ndarray:
    """``Bᵀ u`` for the masked synthesis ``B g = istft(apply_mask(spec, g))``.

    ``(Bᵀ u)[k] = sum_tau Re(conj(X[tau, k]) scale_k rfft(w u_tau)[k])``, u_tau frame
    tau of ``u / ola_gain`` as :func:`stft` frames a signal, ``scale`` irfft's weights.
    """
    cfg = spec.cfg
    grad_spec = _analyze(upstream / cfg.ola_gain, cfg, spec.frames.shape[0])
    scale = _bin_weights(cfg.n_bins, cfg.window_len)
    return (np.real(np.conj(spec.frames) * grad_spec) * scale).sum(axis=0)


def _synthesis_gram(spec: Spectrogram) -> np.ndarray:
    """``Q = BᵀB`` for :func:`_istft_adjoint`'s B: ``Q[k, l] = <b_k, b_l>``, b_k the
    trimmed iSTFT of bin k alone.

    Output hop-block b sums sub-block i < r = N/H of frame b - i (:func:`istft`),
    each linear in the gains through the windowed synthesis tables D_i (H x F:
    cos for Re X, -sin for Im X). So Q sums, over sub-block pairs (i, j) and
    the four Re/Im quadrants, ``D_iᵀ D_j`` times the lagged frame products
    ``Z_iᵀ Z_j`` over the kept blocks, one F x F quadrant at a time; tables are
    made per sub-block to keep memory small. The trim drops ``pad = (r - 1) H``
    samples, i.e. whole blocks; a partial last block adds one explicit term.
    """
    cfg = spec.cfg
    n, h, f = cfg.window_len, cfg.hop, cfg.n_bins
    r = n // h
    full, tail = divmod(spec.original_len, h)
    scale = _bin_weights(f, n)

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


def white_noise(length: int, seed: int, sample_rate_hz: int = 16000) -> Signal:
    """Zero-mean unit-variance Gaussian noise from a seeded PCG64 generator.

    The stream is fully determined by the seed (PCG64 with the ziggurat
    normal transform), so experiments are reproducible. A length below 1
    raises :class:`ConfigError`.
    """
    if length < 1:
        raise ConfigError("length", f"must be >= 1, got {length!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return Signal(rng.standard_normal(length), sample_rate_hz)


def band_spectral_energy(spec: Spectrogram, band: tuple[int, int]) -> float:
    """Total spectral energy inside the inclusive bin range ``band = (lo, hi)``.

    ``band`` must be a pair of integers with ``0 <= lo <= hi < spec.n_bins``;
    anything else raises :class:`ConfigError` rather than being clipped.
    """
    try:
        lo, hi = band
    except (TypeError, ValueError):
        raise ConfigError("band", f"must be a (lo, hi) pair, got {band!r}") from None
    if not (isinstance(lo, (int, np.integer)) and isinstance(hi, (int, np.integer))
            and 0 <= lo <= hi < spec.n_bins):
        raise ConfigError("band", f"must be integer bins with 0 <= lo <= hi < {spec.n_bins}, "
                                  f"got {band!r}")
    power = np.abs(spec.frames[:, lo:hi + 1]) ** 2
    return float((power * _bin_weights(spec.n_bins)[lo:hi + 1]).sum())


def mix_at_snr(clean: Signal, noise: Signal, snr_db: float,
               band: tuple[int, int] | None = None,
               cfg: StftConfig = StftConfig()) -> tuple[Signal, Signal]:
    """Rescale ``noise`` for a target clean-to-noise ratio, then add it.

    Energies are measured over the whole signal or, when ``band`` is given as
    an inclusive STFT bin range, inside that band only (the "local" SNR); a
    band outside the spectrum raises :class:`ConfigError`
    (:func:`band_spectral_energy`).
    Returns ``(mixture, scaled_noise)``. The noise gain is
    ``sqrt(clean_e / (10^(snr_db/10) noise_e))``; where that overflows or
    divides by zero it is taken as ``sqrt(clean_e/noise_e) 10^(-snr_db/20)``.
    A gain that underflows adds zero noise, as ``snr_db = +inf`` does; NaN,
    ``-inf``, a gain beyond the float64 range and noise silent in the band
    raise :class:`ConfigError`, an energy beyond it :class:`NonFiniteError`.
    """
    if not snr_db > -np.inf:  # NaN or -inf: no finite noise gain reaches it
        raise ConfigError("snr_db", f"must be above -inf and not NaN, got {snr_db!r}")
    if len(clean) != len(noise):
        raise LengthMismatchError(
            f"clean has {len(clean)} samples, noise has {len(noise)}"
        )
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise SampleRateMismatchError(
            f"sample rates differ: {clean.sample_rate_hz} Hz vs {noise.sample_rate_hz} Hz")
    if band is None:
        clean_e, noise_e = _inner(clean.samples), _inner(noise.samples)
    else:
        clean_e = band_spectral_energy(stft(clean, cfg), band)
        noise_e = band_spectral_energy(stft(noise, cfg), band)
    if not (math.isfinite(clean_e) and math.isfinite(noise_e)):
        raise NonFiniteError(f"energies {clean_e!r}, {noise_e!r} beyond the float64 range")
    if clean_e == 0.0:
        raise ZeroReferenceError("clean signal has no energy in the measured band")
    if noise_e == 0.0:
        raise ConfigError("noise", "has no energy in the measured band; cannot scale")
    try:
        scale = math.sqrt(clean_e / (10.0 ** (snr_db / 10.0) * noise_e))
    except (OverflowError, ZeroDivisionError):  # 10^(snr_db/10) beyond the float64 range
        scale = math.inf
    if scale == math.inf:
        try:
            scale = math.sqrt(clean_e / noise_e) * 10.0 ** (-snr_db / 20.0)
        except OverflowError:
            pass
        if scale == math.inf:
            raise ConfigError("snr_db", f"noise gain beyond the float64 range at {snr_db!r} dB")
    scaled = Signal(noise.samples * scale, noise.sample_rate_hz)
    mixture = Signal(clean.samples + scaled.samples, clean.sample_rate_hz)
    return mixture, scaled


def band_center(spec: Spectrogram, mode: str = "median-energy") -> int:
    """Locate a band center from time-averaged spectra.

    ``median-energy``: smallest bin where the cumulative time-averaged energy
    reaches half the total. ``max-magnitude``: argmax of the time-averaged
    magnitude (smallest index on ties). Any other mode raises :class:`ConfigError`.
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
    raise ConfigError("mode", f"unknown mode {mode!r}; use 'median-energy' or 'max-magnitude'")


def band_edges(center: int, width_bins: int, n_bins: int) -> tuple[int, int]:
    """Inclusive range of ``min(width_bins, n_bins)`` bins around ``center``.

    Centred on ``center`` (one bin lower for an even width) and shifted inward
    where it would cross a spectrum edge, so the band keeps its width and
    always contains ``center``. A width below 1 or a ``center`` outside
    ``[0, n_bins)`` raises :class:`ConfigError`.
    """
    if width_bins < 1:
        raise ConfigError("width_bins", f"must be >= 1, got {width_bins!r}")
    if not 0 <= center < n_bins:
        raise ConfigError("center", f"must lie in [0, {n_bins}), got {center!r}")
    width = min(width_bins, n_bins)
    lo = min(max(center - (width - 1) // 2, 0), n_bins - width)
    return lo, lo + width - 1


def hz_to_bins(width_hz: float, sample_rate_hz: int, fft_size: int) -> int:
    """Convert a bandwidth in Hz to an odd bin count (symmetric about a center bin).

    Rounds to the nearest integer first; an even result moves to whichever odd
    neighbour is closer to the exact value (upward on exact ties). A width that
    is not a finite number > 0 raises :class:`ConfigError`.
    """
    _check_number("width_hz", width_hz)
    if width_hz <= 0:
        raise ConfigError("width_hz", f"must be > 0, got {width_hz!r}")
    exact = width_hz / (sample_rate_hz / fft_size)
    rounded = int(round(exact))
    if rounded % 2 == 1:
        return max(rounded, 1)
    return max(rounded + 1 if exact >= rounded else rounded - 1, 1)
