import logging
import math
import warnings

import numpy as np
import pytest
import scipy.special

from sepmetrics import adversary
from sepmetrics.adversary import (
    AdversaryConfig,
    gradient,
    mask_from_weights,
    objective,
    optimize,
)
from sepmetrics.audio import Signal
from sepmetrics.dsp import StftConfig, _istft_adjoint, istft, stft
from sepmetrics.errors import NonFiniteError
from sepmetrics.fixtures import speech_like

CFG = StftConfig()


def central_differences(weights, clean, cfg, h=1e-5):
    grad = np.zeros_like(weights)
    for i in range(weights.size):
        up = weights.copy()
        up[i] += h
        down = weights.copy()
        down[i] -= h
        grad[i] = (objective(up, clean, cfg) - objective(down, clean, cfg)) / (2 * h)
    return grad


class TestMaskFromWeights:
    def test_zero_weights_give_all_ones(self):
        mask = mask_from_weights(np.zeros(257))
        assert np.array_equal(mask.gains, np.ones(257))

    def test_logistic_then_renormalize(self):
        mask = mask_from_weights(np.array([0.0, 20.0]))
        vmax = 1.0 / (1.0 + np.exp(-20.0))
        assert mask.gains[1] == 1.0
        assert mask.gains[0] == pytest.approx(0.5 / vmax, rel=1e-12)
        assert mask.gains[0] == pytest.approx(0.5, abs=1e-6)

    def test_not_shift_invariant(self):
        # adding a constant to the weights changes the mask shape
        a = mask_from_weights(np.array([0.0, 2.0])).gains
        b = mask_from_weights(np.array([3.0, 5.0])).gains
        assert not np.allclose(a, b)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mask_from_weights(np.array([0.0, np.inf]))

    def test_nonfinite_weight_raises_a_typed_error(self):
        with pytest.raises(NonFiniteError, match="weights must be finite") as info:
            mask_from_weights([math.nan])
        assert isinstance(info.value, ValueError)

    def test_saturated_weights_without_warnings(self):
        # exp(1000) overflows to inf, so the logistic of -1000 is exactly 0.
        weights = np.array([-1000.0, 0.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = mask_from_weights(weights)
        expit = scipy.special.expit(weights)
        assert np.array_equal(mask.gains, expit / expit.max())
        assert np.array_equal(mask.gains, [0.0, 0.5, 1.0])

    def test_logistic_matches_scipy_expit(self):
        # scipy computes 1 / (1 + exp(-w)) too; the exp implementations may
        # differ by an ulp.
        weights = np.linspace(-745.0, 745.0, 20001)
        np.testing.assert_allclose(adversary._expit(weights), scipy.special.expit(weights),
                                   rtol=4 * np.finfo(np.float64).eps, atol=0)


class TestObjective:
    def test_all_ones_mask_near_perfect(self, short_speech):
        assert objective(np.zeros(CFG.n_bins), short_speech, CFG) >= 50.0

    def test_scale_invariant_in_clean(self, short_speech, rng):
        w = rng.standard_normal(CFG.n_bins)
        doubled = Signal(2.0 * short_speech.samples, short_speech.sample_rate_hz)
        a = objective(w, short_speech, CFG)
        b = objective(w, doubled, CFG)
        assert b == pytest.approx(a, abs=1e-9)

    def test_suppressing_strong_bins_hurts(self, short_speech):
        w = np.full(CFG.n_bins, -20.0)
        spec = stft(short_speech, CFG)
        strongest = np.argsort(np.abs(spec.frames).mean(axis=0))[-2:]
        w[strongest] = 20.0
        assert objective(w, short_speech, CFG) < 20.0


class TestGradient:
    def test_matches_central_differences(self, short_speech, rng):
        worst = 0.0
        for _ in range(20):
            w = rng.standard_normal(CFG.n_bins)
            analytic = gradient(w, short_speech, CFG)
            numeric = central_differences(w, short_speech, CFG)
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_zero_energy_bins_have_zero_gradient(self, short_speech, rng):
        # Bins with no content cannot influence the output, so their weight
        # gradient vanishes exactly (unless they hold the normalization max).
        from sepmetrics.adversary import _gradient_cached

        spec = stft(short_speech, CFG)
        silent = np.arange(180, 220)
        spec.frames[:, silent] = 0.0
        w = rng.standard_normal(CFG.n_bins) * 0.1
        w[30] = 5.0  # pin the argmax on a live bin
        g, _ = _gradient_cached(spec, short_speech.samples, w)
        assert np.array_equal(g[silent], np.zeros(silent.size))
        assert np.max(np.abs(g)) > 0

    def test_descent_direction(self, short_speech):
        w = np.zeros(CFG.n_bins) - 1.0
        g = gradient(w, short_speech, CFG)
        j0 = objective(w, short_speech, CFG)
        j1 = objective(w - 1e-3 * g / np.linalg.norm(g), short_speech, CFG)
        assert j1 < j0


class TestSynthesisGram:
    def test_gram_gradient_matches_exact_below_cutoff(self, short_speech, rng):
        spec = stft(short_speech, CFG)
        ref = short_speech.samples
        gram = adversary._Gram(adversary._synthesis_gram(spec), _istft_adjoint(spec, ref))
        for _ in range(5):
            w = rng.standard_normal(CFG.n_bins)
            exact, value = adversary._gradient_cached(spec, ref, w)
            fast, fast_value = adversary._gradient_cached(spec, ref, w, gram)
            assert fast_value == value
            assert np.linalg.norm(fast - exact) <= 1e-10 * np.linalg.norm(exact)
        assert gram.used == 5

    def test_zero_energy_bins_have_zero_gram_gradient(self, short_speech, rng):
        # the Gram rows and adjoint entries of silent bins are exactly zero
        spec = stft(short_speech, CFG)
        ref = short_speech.samples
        silent = np.arange(180, 220)
        spec.frames[:, silent] = 0.0
        gram = adversary._Gram(adversary._synthesis_gram(spec), _istft_adjoint(spec, ref))
        w = rng.standard_normal(CFG.n_bins) * 0.1
        w[30] = 5.0  # pin the argmax on a live bin
        g, _ = adversary._gradient_cached(spec, ref, w, gram)
        assert gram.used == 1
        assert np.array_equal(g[silent], np.zeros(silent.size))
        assert np.max(np.abs(g)) > 0

    def test_near_perfect_reconstruction_takes_the_exact_adjoint(self, short_speech):
        # the all-ones mask is above the cutoff: its gradient keeps the exact bits
        spec = stft(short_speech, CFG)
        ref = short_speech.samples
        gram = adversary._Gram(adversary._synthesis_gram(spec), _istft_adjoint(spec, ref))
        w = np.zeros(CFG.n_bins)
        exact, value = adversary._gradient_cached(spec, ref, w)
        guarded, guarded_value = adversary._gradient_cached(spec, ref, w, gram)
        assert value > 60.0
        assert gram.used == 0
        assert np.array_equal(guarded, exact) and guarded_value == value


class TestOptimize:
    def test_zero_iterations(self, short_speech):
        cfg = AdversaryConfig(iterations=0)
        result = optimize(short_speech, cfg)
        assert np.array_equal(result.mask.gains, np.ones(CFG.n_bins))
        assert result.trajectory.shape == (1,)
        assert result.final_si_sdr_db >= 50.0

    def test_deterministic(self, short_speech):
        cfg = AdversaryConfig(iterations=30)
        a = optimize(short_speech, cfg)
        b = optimize(short_speech, cfg)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert np.array_equal(a.weights, b.weights)
        assert a.final_legacy_sdr_db == b.final_legacy_sdr_db

    def test_objective_drops_quickly(self, short_speech):
        cfg = AdversaryConfig(iterations=30)
        result = optimize(short_speech, cfg)
        assert result.trajectory[0] - result.trajectory[-1] >= 20.0
        assert result.trajectory.shape == (31,)
        assert np.all(np.isfinite(result.trajectory))

    def test_nonfinite_gradient_stop_is_logged(self, short_speech, monkeypatch, caplog):
        exact = adversary._gradient_cached
        calls = []

        def poisoned_after_three(spec, clean, weights, gram=None):
            grad, value = exact(spec, clean, weights, gram)
            calls.append(1)
            return (grad * math.nan if len(calls) == 4 else grad), value

        monkeypatch.setattr(adversary, "_gradient_cached", poisoned_after_three)
        caplog.set_level(logging.DEBUG, logger="sepmetrics")
        result = optimize(short_speech, AdversaryConfig(iterations=10))
        assert result.trajectory.shape == (4,)
        assert [r.getMessage() for r in caplog.records if r.name == "sepmetrics.adversary"] == [
            "optimize: non-finite gradient, stopping at iteration 3 of 10"]

    def test_gram_paths_are_logged(self, short_speech, caplog):
        caplog.set_level(logging.WARNING, logger="sepmetrics")
        optimize(short_speech, AdversaryConfig(iterations=5))
        assert caplog.records == []  # silent by default
        caplog.set_level(logging.DEBUG, logger="sepmetrics")
        optimize(short_speech, AdversaryConfig(iterations=5))
        assert [r.getMessage() for r in caplog.records if r.name == "sepmetrics.adversary"] == [
            "optimize: 1 exact-adjoint and 5 Gram gradients (cutoff 1e+06)"]

    def test_nonfinite_gram_gradient_stops_the_loop(self, short_speech, monkeypatch, caplog):
        build = adversary._synthesis_gram

        def poisoned(spec):
            q = build(spec)
            q[3, 3] = math.nan
            return q

        monkeypatch.setattr(adversary, "_synthesis_gram", poisoned)
        caplog.set_level(logging.DEBUG, logger="sepmetrics")
        result = optimize(short_speech, AdversaryConfig(iterations=10))
        assert result.trajectory.shape == (2,)
        assert np.all(np.isfinite(result.trajectory))
        assert [r.getMessage() for r in caplog.records if r.name == "sepmetrics.adversary"] == [
            "optimize: non-finite gradient, stopping at iteration 1 of 10"]

    @pytest.mark.parametrize("iterations", [0, 1, 3, 7])
    def test_one_istft_per_objective_plus_the_final_mask(self, short_speech, monkeypatch,
                                                         iterations):
        # the rule behind the benchmark's expected dsp.istft count (502 at 500)
        calls = []

        def counting(spec):
            calls.append(1)
            return istft(spec)

        monkeypatch.setattr(adversary, "istft", counting)
        optimize(short_speech, AdversaryConfig(iterations=iterations))
        assert len(calls) == iterations + 2

    @pytest.mark.parametrize("duration_s", [1.0, 1.5, 2.0, 3.0])
    def test_gram_path_tracks_the_exact_path(self, duration_s, monkeypatch):
        clean = speech_like(duration_s)
        fast = optimize(clean)
        monkeypatch.setattr(adversary, "_GRAM_CUTOFF", 0.0)  # exact adjoint everywhere
        exact = optimize(clean)
        assert fast.trajectory[0] == exact.trajectory[0]
        assert np.max(np.abs(fast.trajectory - exact.trajectory)) <= 1e-9
        assert fast.final_legacy_sdr_db == pytest.approx(exact.final_legacy_sdr_db, abs=1e-9)
        assert np.max(np.abs(fast.mask.gains - exact.mask.gains)) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdversaryConfig(iterations=-1)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(iterations=2.5), "iterations"),
        (dict(iterations=True), "iterations"),
        (dict(legacy_taps=3.7), "legacy_taps"),
        (dict(legacy_taps=0), "legacy_taps"),
        (dict(stft={"window_len": 512, "hop": 128}), "stft"),
    ])
    def test_config_rejects_at_construction(self, kwargs, field):
        # legacy_taps=0 used to fail only in optimize, after every iteration had run
        with pytest.raises(ValueError, match=f"^{field}: "):
            AdversaryConfig(**kwargs)

    def test_config_accepts_numpy_scalars(self):
        cfg = AdversaryConfig(iterations=np.int64(3), legacy_taps=np.int32(8))
        assert cfg.iterations == 3 and cfg.legacy_taps == 8
