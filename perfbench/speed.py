"""Machine-speed calibration for timings taken on a shared machine.

On a small shared VM the same pass runs up to 1.8x slower for minutes at a
time when neighbours are busy, and both CPU and wall time stretch alike. The
benchmark therefore times a fixed kernel next to the program and reports
times scaled to the speed at which the kernel takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / kernel_time

The kernel uses only numpy and scipy, never sepmetrics, so a change to the
program cannot move it. Its mix follows the program's: FFT correlations, a
Cholesky factorization, an overlap-add loop of small numpy operations and
plain Python arithmetic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# A fixed reference, close to the kernel's time with one BLAS thread on a
# 2-vCPU x86 VM (OpenBLAS 0.3.31, numpy 2.4, scipy 1.17): scaled times read
# as seconds on a machine of that speed.
NOMINAL_S = 0.1
_REPEATS = 11


class Kernel:
    """Fixed inputs, built once per process outside any timing."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(1811_02508))
        self.signal = rng.standard_normal(32000)
        self.frames = rng.standard_normal((126, 257)) + 1j * rng.standard_normal((126, 257))
        basis = rng.standard_normal((512, 640))
        self.gram = basis @ basis.T

    def run(self) -> float:
        """Seconds for one fixed amount of work."""
        start = time.perf_counter()
        for _ in range(_REPEATS):
            spectrum = np.fft.rfft(self.signal, 65536)
            np.fft.irfft(spectrum * np.conj(spectrum), 65536)
            scipy.linalg.cho_factor(self.gram, lower=True, check_finite=False)
            frames = np.fft.irfft(self.frames, n=512, axis=1)
            buf = np.zeros(125 * 128 + 512)
            for t in range(frames.shape[0]):
                buf[t * 128:t * 128 + 512] += frames[t]
            sum(k * k for k in range(20000))
        return time.perf_counter() - start

    def median(self, repeats: int) -> float:
        return statistics.median(self.run() for _ in range(repeats))
