import logging
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.signal import fftconvolve

from sepmetrics.errors import LengthMismatchError, ZeroReferenceError
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
        with pytest.raises(ValueError):
            fir_project(np.ones(10), np.ones(10), cfg=FirProjectionConfig(taps=11))

    def test_problem_size_cap(self, rng):
        sigs = [rng.standard_normal(5000) for _ in range(10)]  # 9 sources * 512 taps
        with pytest.raises(ValueError):
            fir_project(sigs[0], sigs[1], sigs[2:], FirProjectionConfig(taps=512))

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
    @pytest.mark.parametrize("n_interf", [0, 2])
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


class TestLevinsonAgainstDense:
    def test_speech_like_512_taps(self, speech, monkeypatch, caplog):
        ref = speech.samples
        rng = np.random.default_rng(5)
        est = (fftconvolve(ref, rng.standard_normal(40) / 40)[:ref.size]
               + 0.05 * rng.standard_normal(ref.size))
        cfg = FirProjectionConfig(taps=512)
        caplog.set_level(logging.DEBUG, logger="sepmetrics")
        fast = fir_project(est, ref, cfg=cfg)

        def no_levinson(*args, **kwargs):
            raise np.linalg.LinAlgError("disabled")

        monkeypatch.setattr(scipy.linalg, "solve_toeplitz", no_levinson)
        dense = fir_project(est, ref, cfg=cfg)
        paths = [r.getMessage().split(" (")[0] for r in caplog.records]
        assert paths == ["solve_spd: Levinson", "solve_spd: Levinson failed",
                         "solve_spd: Cholesky"]
        for metric in (legacy_sdr, legacy_sir, legacy_sar):
            assert metric(fast) == pytest.approx(metric(dense), abs=1e-9)
