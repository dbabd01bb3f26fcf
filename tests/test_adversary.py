import numpy as np
import pytest

from sepmetrics.adversary import (
    AdversaryConfig,
    _istft_adjoint,
    gradient,
    mask_from_weights,
    objective,
    optimize,
)
from sepmetrics.audio import Signal
from sepmetrics.dsp import MaskVector, StftConfig, apply_mask, istft, stft

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


class TestIstftAdjoint:
    def test_dot_product(self, short_speech, rng):
        # <istft(apply_mask(spec, g)), u> == <g, adjoint(spec, u)> for any g, u
        spec = stft(short_speech, CFG)
        for _ in range(3):
            g = rng.uniform(0.0, 1.0, CFG.n_bins)
            u = rng.standard_normal(len(short_speech))
            lhs = float(istft(apply_mask(spec, MaskVector(g))).samples @ u)
            rhs = float(g @ _istft_adjoint(spec, u))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdversaryConfig(step_size=0.0)
        with pytest.raises(ValueError):
            AdversaryConfig(momentum=1.0)
        with pytest.raises(ValueError):
            AdversaryConfig(iterations=-1)
        with pytest.raises(ValueError):
            AdversaryConfig(grad_clip=0.0)
