import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
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


class TestSingleSource:
    def test_one_tap_is_optimal_gain(self, rng):
        s = rng.standard_normal(4000)
        est = 0.7 * s + 0.3 * rng.standard_normal(4000)
        d = fir_project(est, s, cfg=FirProjectionConfig(taps=1))
        alpha = (est @ s) / (s @ s)
        assert d.projection_filters[0].shape == (1,)
        assert d.projection_filters[0][0] == pytest.approx(alpha, rel=1e-12)
        assert np.allclose(d.s_target, alpha * s, rtol=1e-12)
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
        resid = float(d.e_artif @ d.e_artif)
        assert resid <= 1e-8 * float(est @ est)

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
        padded_len = est.size + taps - 1
        resid_norm = np.linalg.norm(d.e_artif)
        for src in (s, n):
            for delay in (0, 1, taps // 2, taps - 1):
                shifted = np.zeros(padded_len)
                shifted[delay:delay + src.size] = src
                rel = abs(d.e_artif @ shifted) / (resid_norm * np.linalg.norm(src))
                assert rel < 1e-8

    def test_coefficient_perturbation_never_helps(self, noisy_case):
        s, n, est, taps = noisy_case
        d = fir_project(est, s, [n], FirProjectionConfig(taps=taps))
        est_padded = np.concatenate([est, np.zeros(taps - 1)])
        base = float(d.e_artif @ d.e_artif)
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
            energy = float(d.e_artif @ d.e_artif)
            assert energy <= previous + 1e-9 * abs(previous)
            previous = energy

    def test_target_and_interference_split(self, noisy_case):
        s, n, est, taps = noisy_case
        d = fir_project(est, s, [n], FirProjectionConfig(taps=taps))
        assert np.allclose(d.s_target,
                           fftconvolve(s, d.projection_filters[0]), rtol=1e-10)
        assert np.allclose(d.e_interf,
                           fftconvolve(n, d.projection_filters[1]), rtol=1e-10)
        recon = d.s_target + d.e_interf + d.e_artif
        assert np.allclose(recon[:est.size], est, atol=1e-10)
        assert np.allclose(recon[est.size:], 0.0, atol=1e-10)


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

    def test_zero_reference(self):
        with pytest.raises(ZeroReferenceError):
            fir_project(np.ones(100), np.zeros(100))


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

        for got, want in ((d.s_target, target), (d.e_interf, interf), (d.e_artif, artif)):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


_INTERFERERS = {
    "none": lambda s, r: [],
    "one": lambda s, r: [r[0]],
    "two": lambda s, r: [r[0], r[1]],
    "duplicated": lambda s, r: [s.copy()],
    "scaled": lambda s, r: [3.0 * s],
}


def vector_energies(d):
    """The five energies of the explicitly read vectors."""
    t, i, a = d.s_target, d.e_interf, d.e_artif
    return {"target": linalg._inner(t), "interf": linalg._inner(i), "artif": linalg._inner(a),
            "distortion": linalg._inner(i + a), "projected": linalg._inner(t + i)}


DOCUMENTED_CUTOFF = 1e4


def ruled_to_vectors(d, est, sources, energies):
    """Per energy, True if the documented cutoff rule sends it to the vectors, False
    if it keeps the scalar form, None within a factor of 2 of the cutoff.

    The rule from ``fir_project``'s docstring: with ``sigma^2`` the peak of the
    sources' summed power spectra, each term is bounded by ``sqrt(E)`` and
    ``sigma ||h||``, and an energy is kept while its bound is at most 1e4 times it.
    """
    taps = d.taps
    n_fft = scipy.fft.next_fast_len(est.size + taps - 1, real=True)
    power = np.cumsum([np.abs(np.fft.rfft(s, n_fft)) ** 2 for s in sources], axis=0)
    h = d.projection_filters
    ref_bound = math.sqrt(power[0].max() * np.sum(h[0] ** 2))
    bound = math.sqrt(power[-1].max() * np.sum(np.concatenate(h) ** 2))
    e = math.sqrt(np.sum(est ** 2))
    bounds = {"target": ref_bound ** 2, "projected": bound ** 2, "artif": (e + bound) ** 2,
              "distortion": (e + ref_bound) ** 2, "interf": (bound + ref_bound) ** 2}
    out = {}
    for part, value in energies.items():
        if part == "interf" and len(sources) == 1:
            out[part] = False  # exactly zero without interferers, never from the vectors
        elif value <= 0.0 or bounds[part] > 2 * DOCUMENTED_CUTOFF * value:
            out[part] = True
        elif bounds[part] < DOCUMENTED_CUTOFF / 2 * value:
            out[part] = False
        else:
            out[part] = None
    return out


class TestScoresFromNormalEquations:
    """Scores from the normal equations against the energies of the explicit vectors."""

    @pytest.mark.parametrize("interf", sorted(_INTERFERERS))
    @pytest.mark.parametrize("taps", [1, 16, 512])
    @pytest.mark.parametrize("level_db", [-10, 0, 20, 40, 60, 100])
    def test_match_the_vectors(self, level_db, taps, interf, caplog):
        rng = np.random.default_rng(1000 * (level_db + 10) + taps)
        s, *others = (speech_like(0.5, 16000, seed).samples for seed in (30, 31, 32))
        sources = [s] + _INTERFERERS[interf](s, others)
        # A short filter lies in the span at every tap count; everything else
        # is scaled to level_db below it, so the lone-reference SDR spans -10 to 100 dB.
        target = fftconvolve(s, rng.standard_normal(min(taps, 8)))[:s.size]
        rest = rng.standard_normal(s.size) + 0.5 * sum(others[:len(sources) - 1])
        est = target + rest * math.sqrt(linalg._inner(target) / linalg._inner(rest)) \
            * 10 ** (-level_db / 20)
        caplog.set_level(logging.DEBUG, logger="sepmetrics.legacy")
        d = fir_project(est, s, sources[1:], FirProjectionConfig(taps=taps))
        scores = [legacy_sdr(d), legacy_sir(d), legacy_sar(d)]
        read = {r.getMessage().split()[1] for r in caplog.records
                if r.getMessage().endswith("energy read from the vectors")}

        v = vector_energies(d)
        want = [metrics.db_ratio(v["target"], v["distortion"]),
                metrics.db_ratio(v["target"], v["interf"]),
                metrics.db_ratio(v["projected"], v["artif"])]
        assert scores == pytest.approx(want, abs=1e-9)
        for part, to_vectors in ruled_to_vectors(d, est, sources, v).items():
            if to_vectors is not None:
                assert (part in read) == to_vectors, part

    def test_both_sides_of_the_cutoff(self, speech, caplog):
        ref = speech.samples
        rng = np.random.default_rng(4)
        target = fftconvolve(ref, rng.standard_normal(8))[:ref.size]
        noise = rng.standard_normal(ref.size)
        noise *= math.sqrt(linalg._inner(target) / linalg._inner(noise))
        caplog.set_level(logging.DEBUG, logger="sepmetrics.legacy")
        reads = []
        for est in (target + noise, target + 1e-4 * noise, ref):
            caplog.clear()
            legacy_sdr(fir_project(est, ref, cfg=FirProjectionConfig(taps=64)))
            reads.append([r.getMessage() for r in caplog.records if "vectors" in r.getMessage()])
        # 0 dB: scalars; 80 dB and an exact copy (306 dB): past the cutoff.
        assert reads == [[], ["fir_project: distortion energy read from the vectors"],
                         ["fir_project: distortion energy read from the vectors"]]

    def test_cutoff_rule(self):
        cutoff = DOCUMENTED_CUTOFF
        assert legacy._scalar_energy(2.0, 2.0 * cutoff) == 2.0
        assert legacy._scalar_energy(2.0, 2.0 * cutoff * (1 + 1e-15)) is None
        for value in (0.0, -1.0, math.nan):
            assert legacy._scalar_energy(value, 1.0) is None

    @pytest.mark.parametrize("taps", [1, 16])
    def test_vectors_ignore_later_edits(self, rng, taps):
        s, r, est = (rng.standard_normal(800) for _ in range(3))
        copies = [x.copy() for x in (est, s, r)]
        cfg = FirProjectionConfig(taps=taps)
        d = fir_project(est, s, [r], cfg)
        for x in (est, s, r):
            x *= 2.0
        assert_same(d, fir_project(copies[0], copies[1], [copies[2]], cfg))

    def test_scoring_builds_no_vector(self, speech):
        ref = speech.samples
        rng = np.random.default_rng(6)
        est = (fftconvolve(ref, rng.standard_normal(20) / 20)[:ref.size]
               + 0.01 * rng.standard_normal(ref.size))
        cfg = FirProjectionConfig(taps=512)
        legacy_sdr(fir_project(est, ref, cfg=cfg))  # warm the plan, the factor and the FFT sizes
        peaks = []
        for read_vectors in (False, True):
            tracemalloc.start()
            try:
                d = fir_project(est, ref, cfg=cfg)
                if read_vectors:
                    d.s_target
                legacy_sdr(d)
                del d
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Reading a vector builds all three; scoring alone must build none.
        assert peaks[0] + 2 * (ref.size + 511) * 8 <= peaks[1]


class TestLevinsonAgainstDense:
    def test_speech_like_512_taps(self, speech, monkeypatch, caplog):
        ref = speech.samples
        rng = np.random.default_rng(5)
        est = (fftconvolve(ref, rng.standard_normal(40) / 40)[:ref.size]
               + 0.05 * rng.standard_normal(ref.size))
        cfg = FirProjectionConfig(taps=512)
        caplog.set_level(logging.DEBUG, logger="sepmetrics.linalg")
        fast = fir_project(est, ref, cfg=cfg)

        def no_levinson(*args, **kwargs):
            raise np.linalg.LinAlgError("disabled")

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


def no_block_levinson(blocks, rhs):
    raise np.linalg.LinAlgError("disabled")


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
        monkeypatch.setattr(linalg, "_block_levinson", no_block_levinson)
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
        want = lone.s_target + lone.e_interf
        np.testing.assert_allclose(d.s_target + d.e_interf, want,
                                   rtol=0, atol=1e-12 * np.abs(want).max())
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
    """``fir_project`` with no reference plan or Toeplitz factor left by an earlier call."""
    legacy._plan = linalg._factor = None
    return fir_project(est, ref, interferers, FirProjectionConfig(taps=taps))


def assert_same(got, want):
    for name in ("s_target", "e_interf", "e_artif"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
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
        assert not np.array_equal(edited.s_target, first.s_target)
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
                assert np.array_equal(d.s_target, fftconvolve(ref, d.projection_filters[0]))

    def test_contributions_are_fftconvolve(self, signals):
        a, b, ests = signals
        interf = [b, np.roll(b, 3) + 0.1 * a]
        for _ in range(2):  # cold, then from the plan
            d = fir_project(ests[0] + 0.5 * b, a, interf, FirProjectionConfig(taps=32))
            f = d.projection_filters
            assert np.array_equal(d.s_target, fftconvolve(a, f[0]))
            assert np.array_equal(d.e_interf, np.sum(
                [fftconvolve(s, h) for s, h in zip(interf, f[1:])], axis=0))

    def test_holds_one_private_reference(self, signals):
        a, b, ests = signals
        fir_project(ests[0], a, cfg=FirProjectionConfig(taps=32))
        fir_project(ests[1], b, cfg=FirProjectionConfig(taps=16))
        ref, taps, spec, acf = legacy._plan
        assert taps == 16 and np.array_equal(ref, b) and ref is not b
        assert not any(x.flags.writeable for x in (ref, spec, acf))
        # Only 2*taps-1 lags are kept, read exactly as the full autocorrelation.
        cc = scipy.fft.irfft(spec * np.conj(spec), scipy.fft.next_fast_len(1515, real=True))
        assert acf.size == 31 and np.array_equal(acf[:16], cc[:16])
        assert np.array_equal(legacy._lags(acf, 16), legacy._lags(cc, 16))

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

    def test_threads_share_the_plan_safely(self, signals):
        a, b, ests = signals
        cases = [(ests[i % 3], (a, b)[i % 2], (), 16) for i in range(4)]
        want = [cold_project(*c) for c in cases]
        failures = []

        def worker(offset):
            for i in range(40):
                k = (i + offset) % len(cases)
                est, ref, _, taps = cases[k]
                got = fir_project(est, ref, cfg=FirProjectionConfig(taps=taps))
                if not np.array_equal(got.s_target, want[k].s_target):
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
