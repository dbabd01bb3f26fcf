"""Deterministic synthetic test signals.

``speech_like`` is shipped in place of a recorded utterance: a voiced
harmonic complex with a drifting fundamental and formant-shaped envelope,
syllable-rate amplitude modulation, alternating high-band frication noise,
and a touch of breath noise. It is broadband (the envelope keeps every
frequency region above the analysis noise floor) and non-periodic enough for
delayed-copy Gram matrices to stay well conditioned. Any 16 kHz mono WAV can
be substituted for it in the experiment harness.
"""

from __future__ import annotations

import numpy as np

from .audio import Signal
from .errors import SignalTooShortError

__all__ = ["speech_like"]

_FORMANTS = (  # center Hz, bandwidth Hz, gain: an /i/-like layout
    (550.0, 90.0, 1.4),
    (2600.0, 170.0, 0.5),
    (3100.0, 220.0, 0.3),
)
_F0_HZ = 110.0
_SHELF = 0.05          # high-frequency floor, scaled by sqrt(f/nyquist)
_VALLEY = (1550.0, 350.0, 0.75)  # inter-formant dip: center, width, depth
_FRICATION = 0.45      # frication level relative to the voiced part's rms
_BREATH = 0.02
_SYLLABLE_HZ = 3.0


def speech_like(duration_s: float = 2.0, sample_rate_hz: int = 16000,
                seed: int = 0) -> Signal:
    """Synthesize a speech-like fixture signal with peak amplitude 0.5."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(round(duration_s * sample_rate_hz))
    if n < 3:  # the 50 ms fades are zero at both ends, so 2 samples are all fade
        raise SignalTooShortError(f"speech_like needs at least 3 samples, got {n}")
    t = np.arange(n) / sample_rate_hz
    nyquist = sample_rate_hz / 2.0

    # voiced part: harmonics of a slowly drifting fundamental
    f0 = _F0_HZ * (1.0 + 0.06 * np.sin(2 * np.pi * 0.7 * t)
                   + 0.02 * np.sin(2 * np.pi * 2.3 * t + 1.0))
    base_phase = 2 * np.pi * np.cumsum(f0) / sample_rate_hz
    voiced = np.zeros(n)
    max_harmonic = int(0.97 * nyquist / (_F0_HZ * 1.08))
    valley_hz, valley_width, valley_depth = _VALLEY
    for k in range(1, max_harmonic + 1):
        f_k = k * _F0_HZ
        amp = _SHELF * np.sqrt(f_k / nyquist)
        amp *= 1.0 - valley_depth * np.exp(-(((f_k - valley_hz) / valley_width) ** 2))
        for fc, bw, gain in _FORMANTS:
            amp += gain / (1.0 + ((f_k - fc) / bw) ** 2)
        voiced += amp * np.cos(k * base_phase + rng.uniform(0.0, 2 * np.pi))
    syllable = np.sin(2 * np.pi * _SYLLABLE_HZ * t + 0.3)
    voiced *= 0.55 + 0.45 * syllable

    # frication: high-band noise, loudest where voicing is quiet
    fric = rng.standard_normal(n)
    spectrum = np.fft.rfft(fric)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    spectrum *= 1.0 / (1.0 + np.exp(-(freqs - 3500.0) / 400.0))
    fric = np.fft.irfft(spectrum, n)
    fric *= 0.7 - 0.3 * syllable
    fric *= _FRICATION * np.std(voiced) / np.std(fric)

    breath = _BREATH * np.std(voiced) * rng.standard_normal(n)
    x = voiced + fric + breath
    edge = np.minimum(1.0, np.minimum(t, t[-1] - t) / 0.05)  # 50 ms fades
    x *= edge
    return Signal(0.5 * x / np.max(np.abs(x)), sample_rate_hz)
