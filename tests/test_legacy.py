import itertools
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

from sepmetrics import legacy, linalg, metrics
from sepmetrics.errors import (
    DegenerateSourcesError,
    LengthMismatchError,
    PreconditionError,
    ProblemTooLargeError,
    SignalTooShortError,
    ZeroReferenceError,
)
from sepmetrics.fixtures import speech_like
from sepmetrics.legacy import (
    FirProjectionConfig,
    fir_project,
    legacy_sar,
    legacy_sdr,
    legacy_sir,
)
from sepmetrics.metrics import si_sdr


def tail_safe_pair(length, filter_taps, seed):
    """Reference with a zeroed tail and an estimate exactly in its delayed span."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(length)
    h = rng.standard_normal(filter_taps)
    ref = np.concatenate([s, np.zeros(filter_taps - 1)])
    est = np.convolve(s, h)  # same length as ref; an exact span member
    return ref, est, h


ENERGIES = ("target", "interference", "artifacts", "distortion", "projected")


def rebuild_vectors(d, est, reference, interferers=()):
    """``(s_target, e_interf, e_artif)`` from ``d.projection_filters`` by direct sums."""
    est_padded = np.concatenate([est, np.zeros(d.taps - 1)])
    s_target = np.convolve(reference, d.projection_filters[0])
    e_interf = np.zeros(est_padded.size)
    for src, h in zip(interferers, d.projection_filters[1:]):
        e_interf += np.convolve(src, h)
    return s_target, e_interf, est_padded - s_target - e_interf


def vector_energies(t, i, a):
    """The five energies of ``(s_target, e_interf, e_artif)``, by field name."""
    return {"target": linalg._inner(t), "interference": linalg._inner(i),
            "artifacts": linalg._inner(a), "distortion": linalg._inner(i + a),
            "projected": linalg._inner(t + i)}


class TestSingleSource:
    def test_one_tap_is_optimal_gain(self, rng):
        s = rng.standard_normal(4000)
        est = 0.7 * s + 0.3 * rng.standard_normal(4000)
        d = fir_project(est, s, cfg=FirProjectionConfig(taps=1))
        alpha = (est @ s) / (s @ s)
        assert d.projection_filters[0].shape == (1,)
        assert d.projection_filters[0][0] == pytest.approx(alpha, rel=1e-12)
        assert np.allclose(rebuild_vectors(d, est, s)[0], alpha * s, rtol=1e-12)
        assert legacy_sdr(d) == pytest.approx(si_sdr(s, est), abs=1e-9)

    def test_one_tap_bridge_many_pairs(self, rng):
        for _ in range(100):
            s = rng.standard_normal(500)
            est = rng.standard_normal(500)
            d = fir_project(est, s, cfg=FirProjectionConfig(taps=1))
            assert legacy_sdr(d) == pytest.approx(si_sdr(s, est), abs=1e-9)

    def test_delayed_copy_forgiven(self, rng):
        s = rng.standard_normal(8192)
        s[-1] = 0.0  # keep the shifted copy inside the padded span
        delayed = np.concatenate([[0.0], s[:-1]])
        d = fir_project(delayed, s, cfg=FirProjectionConfig(taps=2))
        assert legacy_sdr(d) >= 40.0
        assert si_sdr(s, delayed) < 5.0
        assert legacy_sdr(d) - si_sdr(s, delayed) > 35.0

    def test_random_fir_forgiven(self):
        ref, est, _ = tail_safe_pair(16384, 100, seed=0)
        d = fir_project(est, ref, cfg=FirProjectionConfig(taps=512))
        sdr = legacy_sdr(d)
        si = si_sdr(ref, est)
        assert sdr >= 40.0
        assert sdr - si >= 20.0

    def test_subspace_forgiveness_energy(self):
        ref, est, _ = tail_safe_pair(8000, 64, seed=1)
        d = fir_project(est, ref, cfg=FirProjectionConfig(taps=64))
        assert d.artifacts <= 1e-8 * float(est @ est)

    def test_filter_recovered(self):
        ref, est, h = tail_safe_pair(8000, 16, seed=2)
        d = fir_project(est, ref, cfg=FirProjectionConfig(taps=16))
        assert np.allclose(d.projection_filters[0], h, atol=1e-8)


class TestProjectionGeometry:
    @pytest.fixture()
    def noisy_case(self, rng):
        L, taps = 6000, 48
        s = rng.standard_normal(L)
        n = rng.standard_normal(L)
        est = (0.9 * np.convolve(s, rng.standard_normal(20))[:L]
               + 0.5 * np.convolve(n, rng.standard_normal(12))[:L]
               + 0.3 * rng.standard_normal(L))
        return s, n, est, taps

    def test_residual_orthogonal_to_delayed_sources(self, noisy_case):
        s, n, est, taps = noisy_case
        d = fir_project(est, s, [n], FirProjectionConfig(taps=taps))
        e_artif = rebuild_vectors(d, est, s, [n])[2]
        padded_len = est.size + taps - 1
        resid_norm = np.linalg.norm(e_artif)
        for src in (s, n):
            for delay in (0, 1, taps // 2, taps - 1):
                shifted = np.zeros(padded_len)
                shifted[delay:delay + src.size] = src
                rel = abs(e_artif @ shifted) / (resid_norm * np.linalg.norm(src))
                assert rel < 1e-8

    def test_coefficient_perturbation_never_helps(self, noisy_case):
        s, n, est, taps = noisy_case
        d = fir_project(est, s, [n], FirProjectionConfig(taps=taps))
        est_padded = np.concatenate([est, np.zeros(taps - 1)])
        base = d.artifacts
        coeffs = np.concatenate(d.projection_filters)
        for idx in (0, 3, taps - 1, taps, 2 * taps - 1):
            for eps in (1e-3, -1e-3):
                perturbed = coeffs.copy()
                perturbed[idx] += eps
                proj = (fftconvolve(s, perturbed[:taps])
                        + fftconvolve(n, perturbed[taps:]))
                energy = float(np.sum((est_padded - proj) ** 2))
                assert energy >= base

    def test_residual_monotone_in_taps(self, noisy_case):
        s, n, est, _ = noisy_case
        previous = math.inf
        for taps in (1, 2, 8, 32, 96):
            d = fir_project(est, s, [n], FirProjectionConfig(taps=taps))
            energy = d.artifacts
            assert energy <= previous + 1e-9 * abs(previous)
            previous = energy

    def test_target_and_interference_split(self, noisy_case):
        s, n, est, taps = noisy_case
        d = fir_project(est, s, [n], FirProjectionConfig(taps=taps))
        want = vector_energies(*rebuild_vectors(d, est, s, [n]))
        assert [getattr(d, part) for part in ENERGIES] == pytest.approx(
            [want[part] for part in ENERGIES], rel=1e-10)
        # e_artif is orthogonal to the projection: the parts add up to the estimate
        assert d.projected + d.artifacts == pytest.approx(float(est @ est), rel=1e-10)


class TestLegacyRatios:
    def test_out_of_span_estimate(self, rng):
        # reference lives in even samples, estimate in odd ones: disjoint support
        ref = np.zeros(1000)
        ref[::2] = rng.standard_normal(500)
        est = np.zeros(1000)
        est[1::2] = rng.standard_normal(500)
        d = fir_project(est, ref, cfg=FirProjectionConfig(taps=1))
        assert legacy_sdr(d) == -math.inf

    def test_perfect_projection_infinite(self):
        ref, est, _ = tail_safe_pair(4000, 8, seed=3)
        d = fir_project(est, ref, cfg=FirProjectionConfig(taps=8))
        assert legacy_sar(d) > 100  # artifacts at rounding level only

    def test_sar_numerator_includes_interference(self, rng):
        s = rng.standard_normal(3000)
        n = rng.standard_normal(3000)
        artifacts = rng.standard_normal(3000)
        base = s + 0.1 * n + 0.5 * artifacts
        more_noise = s + 1.0 * n + 0.5 * artifacts
        taps = FirProjectionConfig(taps=4)
        sar_base = legacy_sar(fir_project(base, s, [n], taps))
        sar_noisy = legacy_sar(fir_project(more_noise, s, [n], taps))
        assert sar_noisy > sar_base  # the classic definition rewards extra noise

    def test_sir_measures_interference(self, rng):
        s = rng.standard_normal(3000)
        n = rng.standard_normal(3000)
        taps = FirProjectionConfig(taps=4)
        quiet = fir_project(s + 0.01 * n, s, [n], taps)
        loud = fir_project(s + 1.0 * n, s, [n], taps)
        assert legacy_sir(quiet) > legacy_sir(loud)


class TestValidation:
    def test_taps_bounds(self):
        with pytest.raises(ValueError):
            FirProjectionConfig(taps=0)
        with pytest.raises(SignalTooShortError):
            fir_project(np.ones(10), np.ones(10), cfg=FirProjectionConfig(taps=11))

    @pytest.mark.parametrize("taps", [3.7, 4.0, True, None, np.float64(8)])
    def test_taps_must_be_an_integer(self, taps):
        with pytest.raises(ValueError, match="^taps: must be an integer"):
            FirProjectionConfig(taps=taps)

    def test_numpy_integer_taps(self, rng):
        x = rng.standard_normal(200)
        d = fir_project(x, x, cfg=FirProjectionConfig(taps=np.int64(4)))
        assert d.taps == 4

    def test_problem_size_cap(self, rng):
        sigs = [rng.standard_normal(5000) for _ in range(10)]  # 9 sources * 512 taps
        with pytest.raises(ValueError):
            fir_project(sigs[0], sigs[1], sigs[2:], FirProjectionConfig(taps=512))

    def test_problem_size_cap_boundary(self, rng):
        # 3 sources: 1365 taps are 4095 unknowns, at the cap; 1400 taps are 4200
        x, a, b = rng.standard_normal((3, 3000))
        est = 0.8 * x + 0.2 * a + 0.1 * b
        d = fir_project(est, x, [a, b], FirProjectionConfig(taps=1365))
        assert d.taps == 1365 and math.isfinite(legacy_sdr(d))
        with pytest.raises(ProblemTooLargeError, match="4200 exceeds the cap of 4096") as info:
            fir_project(est, x, [a, b], FirProjectionConfig(taps=1400))
        assert isinstance(info.value, PreconditionError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("taps", [800, 1000, 1365])
    def test_more_delayed_copies_than_support_raises(self, taps):
        # 3 * taps > 1600 + taps - 1: the Gram matrix is singular, the split arbitrary
        x, a, b = np.random.default_rng(0).standard_normal((3, 1600))
        with pytest.raises(DegenerateSourcesError, match=f"{3 * taps} exceeds the padded "
                           f"support of L \\+ taps - 1 = {1599 + taps} samples"):
            fir_project(x + a + b, x, [a, b], FirProjectionConfig(taps=taps))

    def test_delayed_copies_within_support_score(self):
        # 3 * 733 = 2199 <= 1600 + 733 - 1 = 2332
        x, a, b = np.random.default_rng(0).standard_normal((3, 1600))
        d = fir_project(0.8 * x + 0.2 * a + 0.1 * b, x, [a, b], FirProjectionConfig(taps=733))
        assert d.taps == 733 and math.isfinite(legacy_sdr(d))

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatchError):
            fir_project(rng.standard_normal(100), rng.standard_normal(99))

    @pytest.mark.parametrize("taps", [1, 16])
    @pytest.mark.parametrize("reference", [np.zeros(1024), np.full(1024, 1e-170)],
                             ids=["zeros", "underflow"])
    def test_zero_reference(self, reference, taps):
        # 1e-170 squared underflows: the reference has zero energy, as in si_sdr
        with pytest.raises(ZeroReferenceError):
            fir_project(np.ones(1024), reference, cfg=FirProjectionConfig(taps=taps))


def delay_matrix(src, taps):
    """Columns are ``src`` delayed by 0..taps-1 samples on the padded support."""
    out = np.zeros((src.size + taps - 1, taps))
    for delay in range(taps):
        out[delay:delay + src.size, delay] = src
    return out


class TestLstsqOracle:
    """``fir_project`` against an explicit delay-matrix least-squares solve."""

    @pytest.mark.parametrize("taps", [1, 2, 17])
    @pytest.mark.parametrize("n_interf", [0, 1, 2, 3])
    def test_matches_lstsq(self, rng, taps, n_interf):
        L = 300
        sources = [rng.standard_normal(L) for _ in range(1 + n_interf)]
        est = (np.convolve(sources[0], rng.standard_normal(5))[:L]
               + sum(0.5 * s for s in sources[1:]) + 0.3 * rng.standard_normal(L))
        d = fir_project(est, sources[0], sources[1:], FirProjectionConfig(taps=taps))

        blocks = [delay_matrix(s, taps) for s in sources]
        est_padded = np.concatenate([est, np.zeros(taps - 1)])
        coeffs = np.linalg.lstsq(np.hstack(blocks), est_padded, rcond=None)[0]
        target = blocks[0] @ coeffs[:taps]
        interf = np.hstack(blocks[1:]) @ coeffs[taps:] if n_interf else np.zeros_like(target)
        artif = est_padded - target - interf

        got = rebuild_vectors(d, est, sources[0], sources[1:])
        for g, want in zip(got, (target, interf, artif)):
            assert np.linalg.norm(g - want) <= 1e-9 * np.linalg.norm(want)
        for part, want in vector_energies(target, interf, artif).items():
            assert getattr(d, part) == pytest.approx(want, rel=1e-9, abs=1e-18 * (est @ est))


_INTERFERERS = {
    "none": lambda s, r: [],
    "one": lambda s, r: [r[0]],
    "two": lambda s, r: [r[0], r[1]],
    "duplicated": lambda s, r: [s.copy()],
    "scaled": lambda s, r: [3.0 * s],
}


class TestScores:
    """Scores against the energies of the explicit vectors."""

    @pytest.mark.parametrize("interf", sorted(_INTERFERERS))
    @pytest.mark.parametrize("taps", [1, 16, 512])
    @pytest.mark.parametrize("level_db", [-10, 0, 20, 40, 60, 100])
    def test_match_the_vectors(self, level_db, taps, interf):
        rng = np.random.default_rng(1000 * (level_db + 10) + taps)
        s, *others = (speech_like(0.5, 16000, seed).samples for seed in (30, 31, 32))
        sources = [s] + _INTERFERERS[interf](s, others)
        # A short filter lies in the span at every tap count; everything else
        # is scaled to level_db below it, so the lone-reference SDR spans -10 to 100 dB.
        target = fftconvolve(s, rng.standard_normal(min(taps, 8)))[:s.size]
        rest = rng.standard_normal(s.size) + 0.5 * sum(others[:len(sources) - 1])
        est = target + rest * math.sqrt(linalg._inner(target) / linalg._inner(rest)) \
            * 10 ** (-level_db / 20)
        d = fir_project(est, s, sources[1:], FirProjectionConfig(taps=taps))
        scores = [legacy_sdr(d), legacy_sir(d), legacy_sar(d)]

        v = vector_energies(*rebuild_vectors(d, est, s, sources[1:]))
        want = [metrics.db_ratio(v["target"], v["distortion"]),
                metrics.db_ratio(v["target"], v["interference"]),
                metrics.db_ratio(v["projected"], v["artifacts"])]
        assert scores == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seconds, rate", [(2.0, 16000), (30.0, 44100)])
    def test_one_path_one_memory_peak(self, seconds, rate):
        # A noisy estimate (about -13 dB) and an exact copy, whose residual is
        # rounding noise, take the same blocked path: their peaks differ by
        # less than a chunk.
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(int(seconds * rate))
        est = (fftconvolve(ref, rng.standard_normal(20) / 20)[:ref.size]
               + rng.standard_normal(ref.size))
        cfg = FirProjectionConfig(taps=512)
        for x in (est, ref):  # warm the plan, the factor and the FFT sizes
            legacy_sdr(fir_project(x, ref, cfg=cfg))
        peaks = []
        for x in (est, ref):
            tracemalloc.start()
            try:
                legacy_sdr(fir_project(x, ref, cfg=cfg))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk = legacy._CHUNK * (2048 // 2 + 1) * 16  # one chunk of N = 2048-point spectra
        assert abs(peaks[0] - peaks[1]) <= chunk, peaks

    @pytest.mark.parametrize("copy", [False, True])
    @pytest.mark.parametrize("n_interf", [0, 2])
    def test_result_holds_no_input_sized_array(self, n_interf, copy):
        sources, est = speech_mix(n_interf, seconds=2.0)
        if copy:
            est = sources[0].copy()
        cfg = FirProjectionConfig(taps=512)
        legacy_sdr(fir_project(est, sources[0], sources[1:], cfg))  # warm the plan and factor
        tracemalloc.start()
        try:
            d = fir_project(est, sources[0], sources[1:], cfg)
            legacy_sdr(d)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 512 * (1 + n_interf) * 8 + 4096, held  # the filters and a few objects


def no_levinson(*args):
    raise np.linalg.LinAlgError("disabled")


class TestLevinsonAgainstDense:
    def test_speech_like_512_taps(self, speech, monkeypatch, caplog):
        ref = speech.samples
        rng = np.random.default_rng(5)
        est = (fftconvolve(ref, rng.standard_normal(40) / 40)[:ref.size]
               + 0.05 * rng.standard_normal(ref.size))
        cfg = FirProjectionConfig(taps=512)
        caplog.set_level(logging.DEBUG, logger="sepmetrics.linalg")
        fast = fir_project(est, ref, cfg=cfg)
        monkeypatch.setattr(linalg, "_levinson", no_levinson)
        dense = fir_project(est, ref, cfg=cfg)
        paths = [r.getMessage().split(" (")[0] for r in caplog.records]
        assert paths == ["solve_spd: Levinson", "solve_spd: Levinson failed",
                         "solve_spd: Cholesky"]
        for metric in (legacy_sdr, legacy_sir, legacy_sar):
            assert metric(fast) == pytest.approx(metric(dense), abs=1e-9)


def solver_paths(caplog):
    return [r.getMessage().split(" (")[0] for r in caplog.records if r.name == "sepmetrics.linalg"]


def speech_mix(n_interf, seconds=0.5, seed=20):
    """Speech-like sources and a filtered, noisy mixture of all of them."""
    rng = np.random.default_rng(seed)
    sources = [speech_like(seconds, 16000, seed + k).samples for k in range(1 + n_interf)]
    est = fftconvolve(sources[0], rng.standard_normal(24) / 24)[:sources[0].size]
    for k, src in enumerate(sources[1:]):
        est += (0.4 - 0.1 * k) * src
    return sources, est + 0.02 * rng.standard_normal(est.size)


def overlap_save_step(length, taps):
    """Block length B of the documented rule: N the smallest power of two >= min(max(4 taps,
    1024), length + taps - 1); B = N - taps + 1."""
    n = 1
    while n < min(max(4 * taps, 1024), length + taps - 1):
        n *= 2
    return n - taps + 1


# (taps, length): one block (L < B), L a multiple of B, L one past a multiple of B.
_BLOCKED_CASES = [(taps, length) for taps, step, short in ((1, 1024, 700), (16, 1009, 700),
                                                           (512, 1537, 1200))
                  for length in (short, 3 * step, 2 * step + 1)]


def assert_direct_energies(d, est, sources):
    """``d``'s five energies against ``np.convolve`` vectors summed by ``math.fsum``.

    Each energy is within ``eps (2 sqrt(want) + eps)`` of the direct one, ``eps``
    being 64 u times ``||est|| + sum_i ||h_i||_1 ||s_i||``, which bounds every vector.
    """
    pairs = list(zip(sources, d.projection_filters))
    target, *others = (np.convolve(s, h) for s, h in pairs)
    interf = sum(others, np.zeros(target.size))
    e = np.concatenate([est, np.zeros(d.taps - 1)])
    want = {"target": target, "interference": interf, "artifacts": e - target - interf,
            "distortion": e - target, "projected": target + interf}
    size = math.sqrt(linalg._inner(est)) + sum(
        np.abs(h).sum() * math.sqrt(linalg._inner(s)) for s, h in pairs)
    eps = 64 * np.finfo(np.float64).eps / 2 * size
    for part, vector in want.items():
        energy = math.fsum(vector ** 2)
        assert abs(getattr(d, part) - energy) <= eps * (2 * math.sqrt(energy) + eps), part


class TestBlockedRightHandSides:
    """The right-hand sides, lag blocks and energies of ``fir_project``, against direct sums."""

    def project(self, monkeypatch, est, sources, taps):
        """``fir_project``'s result and the lag blocks and right-hand sides it solved."""
        seen = []

        def spy(blocks, rhs, kept=None):
            seen.append((blocks.copy(), rhs.copy()))
            return linalg.solve_spd(blocks, rhs, kept)

        monkeypatch.setattr(legacy, "solve_spd", spy)
        d = fir_project(est, sources[0], sources[1:], FirProjectionConfig(taps=taps))
        ((blocks, rhs),) = seen
        return d, blocks, rhs

    def check(self, monkeypatch, sources, taps, rng):
        """Cold, then on the plan the first call left: each lag within 8 u of its norms."""
        legacy._plan = None
        length = sources[0].size
        u = np.finfo(np.float64).eps / 2
        for warm in (False, True):
            est = (np.convolve(sources[0], rng.standard_normal(5))[:length]
                   + 0.5 * np.sum(sources[1:], axis=0) + 0.1 * rng.standard_normal(length))
            plan = legacy._plan
            d, blocks, rhs = self.project(monkeypatch, est, sources, taps)
            assert (legacy._plan is plan) == warm
            step = overlap_save_step(length, taps)  # K segments of N points over L + taps - 1
            assert legacy._plan[3].shape == (-(-(length + taps - 1) // step),
                                             (step + taps - 1) // 2 + 1)
            for got, src in zip(rhs, sources):
                want = [math.fsum(est[lag:] * src[:length - lag]) for lag in range(taps)]
                scale = math.sqrt(linalg._inner(src) * linalg._inner(est))
                assert np.abs(got - want).max() <= 8 * u * scale
            # blocks[d][i, j] = <s_i, delay_d(s_j)>, by the lag sums checked above
            # at every lag; every 8th lag and the last show each block's wiring.
            lags = [*range(0, taps, 8), taps - 1]
            for (i, x), (j, src) in itertools.product(enumerate(sources), repeat=2):
                want = [math.fsum(x[lag:] * src[:length - lag]) for lag in lags]
                scale = math.sqrt(linalg._inner(src) * linalg._inner(x))
                assert np.abs(blocks[lags, i, j] - want).max() <= 8 * u * scale
            assert_direct_energies(d, est, sources)

    @pytest.mark.parametrize("n_interf", [0, 1, 2])
    @pytest.mark.parametrize("taps, length", _BLOCKED_CASES)
    def test_match_direct_sums(self, monkeypatch, rng, taps, length, n_interf):
        step = overlap_save_step(length, taps)
        assert (length < step) == (length in (700, 1200))
        gains = np.array([1.0, 3.0, 0.01])[:1 + n_interf, None]
        self.check(monkeypatch, list(gains * rng.standard_normal((1 + n_interf, length))),
                   taps, rng)

    def test_taps_equal_to_length(self, monkeypatch, rng):
        # The cap: N = 1024, so B = 525 holds the 500 samples in one block and
        # the padded support of 999 samples in two.
        assert overlap_save_step(500, 500) == 525
        self.check(monkeypatch, [rng.standard_normal(500)], 500, rng)

    @pytest.mark.parametrize("level_db", [-10, 0, 20, 60, 100, None], ids=lambda v: f"{v}dB"
                             if v is not None else "copy")
    @pytest.mark.parametrize("taps, length, n_interf", [
        (taps, length, n) for taps, length in _BLOCKED_CASES for n in (0, 1, 2)] + [(500, 500, 0)])
    def test_energies_up_to_an_exact_copy(self, rng, taps, length, n_interf, level_db):
        sources = list(rng.standard_normal((1 + n_interf, length)))
        est = sources[0].copy()
        if level_db is not None:  # a filtered reference, the rest level_db below it
            target = np.convolve(sources[0], rng.standard_normal(5))[:length]
            rest = rng.standard_normal(length) + 0.5 * np.sum(sources[1:], axis=0)
            est = target + rest * math.sqrt(linalg._inner(target) / linalg._inner(rest)) \
                * 10 ** (-level_db / 20)
        assert_direct_energies(fir_project(est, sources[0], sources[1:],
                                           FirProjectionConfig(taps=taps)), est, sources)


class TestBlockLevinsonAgainstDense:
    """Multi-source projections by block Levinson against the dense Cholesky path."""

    @pytest.mark.parametrize("taps", [1, 2, 17, 128, 512])
    @pytest.mark.parametrize("n_interf", [1, 2, 3])
    def test_speech_like(self, n_interf, taps, monkeypatch, caplog):
        sources, est = speech_mix(n_interf)
        cfg = FirProjectionConfig(taps=taps)
        caplog.set_level(logging.DEBUG, logger="sepmetrics.linalg")
        fast = fir_project(est, sources[0], sources[1:], cfg)
        assert solver_paths(caplog) == ["solve_spd: block Levinson"]
        caplog.clear()
        monkeypatch.setattr(linalg, "_levinson", no_levinson)
        dense = fir_project(est, sources[0], sources[1:], cfg)
        assert solver_paths(caplog) == ["solve_spd: block Levinson failed", "solve_spd: Cholesky"]
        for metric in (legacy_sdr, legacy_sir, legacy_sar):
            assert metric(fast) == pytest.approx(metric(dense), abs=1e-9)

    @pytest.mark.parametrize("taps", [1, 16, 64])
    def test_dependent_interferers_project_uniquely(self, dependent, taps):
        # Only P_all(est) = s_target + e_interf and the SAR are unique; the
        # split between dependent sources is not.
        (s, r), est = speech_mix(1)
        interferers, independent = dependent(s, r)
        cfg = FirProjectionConfig(taps=taps)
        d = fir_project(est, s, interferers, cfg)
        lone = fir_project(est, s, independent, cfg)
        got = sum(rebuild_vectors(d, est, s, interferers)[:2])
        want = sum(rebuild_vectors(lone, est, s, independent)[:2])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert legacy_sar(d) == pytest.approx(legacy_sar(lone), abs=1e-9)
        if not independent:
            assert legacy_sar(d) == pytest.approx(legacy_sdr(lone), abs=1e-9)

    def test_peak_memory_is_linear_in_taps(self):
        sources, est = speech_mix(2, seconds=2.0)
        legacy._plan = None
        tracemalloc.start()
        try:
            fir_project(est, sources[0], sources[1:], FirProjectionConfig(taps=512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            legacy._plan = None
        # a dense (3 * 512)^2 Gram matrix alone would be 18.9 MB
        assert peak < 10 * 2 ** 20


_MULTI_SOURCE_LEGACY = """
import logging, sys
from sepmetrics import fixtures, legacy, metrics
logging.basicConfig(level=logging.DEBUG, stream=sys.stdout, format="%(message)s")
logging.getLogger("sepmetrics.legacy").setLevel(logging.INFO)
for seconds in (1.0, 2.0, 3.0, 4.0):
    s = [fixtures.speech_like(seconds, 16000, seed).samples for seed in (11, 12, 13, 14)]
    est = s[0] + 0.4 * s[1] - 0.3 * s[2] + 0.05 * s[3]
    d = legacy.fir_project(est, s[0], s[1:3], legacy.FirProjectionConfig(taps=256))
    print(repr((legacy.legacy_sdr(d), legacy.legacy_sir(d), legacy.legacy_sar(d))))
    d = metrics.decompose(s[0], est, s[1:3])
    print(repr((metrics.si_sir(d), metrics.si_sar(d))))
"""


def test_multi_source_scores_do_not_depend_on_blas_threads():
    # The block recursion contracts with numpy einsum and checks its residual
    # with FFTs, so no BLAS call sees the data. The thread count is fixed at
    # process start, so each run is a subprocess with its own environment.
    src = os.path.dirname(os.path.dirname(os.path.abspath(legacy.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outputs.append(subprocess.run([sys.executable, "-c", _MULTI_SOURCE_LEGACY], env=env,
                                      check=True, capture_output=True, text=True).stdout)
    assert outputs[0].count("solve_spd: block Levinson (n=768") == 4
    # decompose's Gram matrix goes in as one lag block of 3 sources
    assert outputs[0].count("solve_spd: block Levinson (n=3,") == 4
    assert outputs[0] == outputs[1]


def cold_project(est, ref, interferers=(), taps=32):
    """``fir_project`` with no reference plan (nor its factor) left by an earlier call."""
    legacy._plan = None
    return fir_project(est, ref, interferers, FirProjectionConfig(taps=taps))


def assert_same(got, want):
    for name in ENERGIES:
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.projection_filters) == len(want.projection_filters)
    for g, w in zip(got.projection_filters, want.projection_filters):
        assert np.array_equal(g, w)


class TestReferencePlan:
    """Calls that reuse the last reference's statistics match a cold call bit for bit."""

    @pytest.fixture()
    def signals(self, rng):
        a, b = rng.standard_normal(1500), rng.standard_normal(1500)
        ests = [np.convolve(a, rng.standard_normal(9))[:1500] + 0.2 * rng.standard_normal(1500)
                for _ in range(3)]
        return a, b, ests

    @pytest.fixture(autouse=True)
    def no_plan(self):
        legacy._plan = None
        yield
        legacy._plan = None

    def run_warm(self, calls):
        """Each call cold, then all in sequence on one plan; the results must agree."""
        cold = [cold_project(*c) for c in calls]
        legacy._plan = None
        for c, want in zip(calls, cold):
            assert_same(fir_project(c[0], c[1], c[2], FirProjectionConfig(taps=c[3])), want)

    def test_repeated_calls_on_one_reference(self, signals):
        a, _, ests = signals
        self.run_warm([(e, a, (), 32) for e in ests])
        plan = legacy._plan
        fir_project(ests[0], a, cfg=FirProjectionConfig(taps=32))
        assert legacy._plan is plan

    def test_alternating_references(self, signals):
        a, b, ests = signals
        self.run_warm([(ests[0], a, (), 32), (ests[1], b, (), 32), (ests[2], a, (), 32)])

    def test_changing_taps(self, signals):
        a, _, ests = signals
        self.run_warm([(ests[0], a, (), t) for t in (32, 1, 17, 32, 512)])

    def test_reference_edited_in_place(self, signals):
        a, _, ests = signals
        first = fir_project(ests[0], a, cfg=FirProjectionConfig(taps=32))
        a[700] += 1.0  # prepare() hands fir_project this very array
        edited = fir_project(ests[0], a, cfg=FirProjectionConfig(taps=32))
        assert not np.array_equal(edited.projection_filters[0], first.projection_filters[0])
        assert_same(edited, cold_project(ests[0], a))

    def test_multi_source_between_single_source_calls(self, signals):
        a, b, ests = signals
        interf = [b, np.roll(b, 3) + 0.1 * a]
        self.run_warm([(ests[0], a, (), 32), (ests[1], a, interf, 32),
                       (ests[2], b, [a], 16), (ests[2], a, (), 32)])

    def test_target_is_fftconvolve(self, speech):
        ref = speech.samples
        est = (fftconvolve(ref, np.random.default_rng(2).standard_normal(30) / 30)[:ref.size]
               + 0.05 * np.random.default_rng(3).standard_normal(ref.size))
        for taps in (2, 17, 512):
            for _ in range(2):  # cold, then from the plan
                d = fir_project(est, ref, cfg=FirProjectionConfig(taps=taps))
                s_target = fftconvolve(ref, d.projection_filters[0])
                assert d.target == pytest.approx(linalg._inner(s_target), rel=1e-13)

    def test_contributions_are_fftconvolve(self, signals):
        a, b, ests = signals
        interf = [b, np.roll(b, 3) + 0.1 * a]
        for _ in range(2):  # cold, then from the plan
            est = ests[0] + 0.5 * b
            d = fir_project(est, a, interf, FirProjectionConfig(taps=32))
            f = d.projection_filters
            s_target = fftconvolve(a, f[0])
            e_interf = np.sum([fftconvolve(s, h) for s, h in zip(interf, f[1:])], axis=0)
            assert d.target == pytest.approx(linalg._inner(s_target), rel=1e-13)
            assert d.interference == pytest.approx(linalg._inner(e_interf), rel=1e-13)
            assert d.projected == pytest.approx(linalg._inner(s_target + e_interf), rel=1e-13)

    def test_holds_one_private_reference(self, signals):
        a, b, ests = signals
        fir_project(ests[0], a, cfg=FirProjectionConfig(taps=32))
        fir_project(ests[1], b, cfg=FirProjectionConfig(taps=16))
        ref, taps, acf, segments, kept = legacy._plan
        assert taps == 16 and np.array_equal(ref, b) and ref is not b
        assert kept[0] is not None  # the factor of the reference-only solve
        assert not any(x.flags.writeable for x in (ref, acf, segments))
        # Only the lags below taps are kept; the negative ones are the same numbers.
        want = [math.fsum(b[lag:] * b[:b.size - lag]) for lag in range(16)]
        assert acf.size == 16
        assert np.abs(acf - want).max() <= 8 * np.finfo(np.float64).eps / 2 * linalg._inner(b)
        # N = 1024, B = 1009: the padded support of 1515 samples in 2 segments.
        assert segments.shape == (2, 513)

    def test_reuse_and_rebuild_logged(self, signals, caplog):
        a, b, ests = signals
        caplog.set_level(logging.WARNING, logger="sepmetrics")
        fir_project(ests[0], a)
        assert caplog.records == []  # silent by default
        legacy._plan = None
        caplog.set_level(logging.DEBUG, logger="sepmetrics")
        for ref in (a, a, b):
            fir_project(ests[0], ref)
        assert [r.getMessage() for r in caplog.records if r.name == "sepmetrics.legacy"] == [
            "fir_project: new reference plan (L=1500, taps=512)",
            "fir_project: reusing the reference plan (L=1500, taps=512)",
            "fir_project: new reference plan (L=1500, taps=512)",
        ]

    def test_factor_outlives_other_solves(self, signals, caplog):
        # A decompose and a multi-source projection on the same reference solve
        # other systems in between; the plan's factor is neither evicted nor touched.
        a, b, ests = signals
        cfg = FirProjectionConfig(taps=32)
        first = fir_project(ests[0], a, cfg=cfg)
        metrics.decompose(a, ests[1], [b])
        fir_project(ests[2], a, [b], cfg)
        caplog.set_level(logging.DEBUG, logger="sepmetrics.linalg")
        again = fir_project(ests[0], a, cfg=cfg)
        assert_same(again, first)
        [record] = [r.getMessage() for r in caplog.records if r.name == "sepmetrics.linalg"]
        assert record.startswith("solve_spd: Levinson (n=32,") and record.endswith("factor reused)")

    def test_threads_share_the_plan_safely(self, signals):
        a, b, ests = signals
        # 512 taps too: each reference's plan, factor holder included, keeps replacing the other's
        cases = [(ests[i % 3], (a, b)[i % 2], (), taps) for taps in (16, 512) for i in range(4)]
        want = [cold_project(*c) for c in cases]
        failures = []

        def worker(offset):
            for i in range(40):
                k = (i + offset) % len(cases)
                est, ref, _, taps = cases[k]
                got = fir_project(est, ref, cfg=FirProjectionConfig(taps=taps))
                try:
                    assert_same(got, want[k])
                except AssertionError:
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
