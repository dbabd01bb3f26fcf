import cmath
import math

import numpy as np
import pytest

from sepmetrics import dsp
from sepmetrics.audio import Signal
from sepmetrics.dsp import (
    MaskVector,
    Spectrogram,
    StftConfig,
    _istft_adjoint,
    _synthesis_gram,
    apply_mask,
    band_center,
    band_edges,
    band_spectral_energy,
    hz_to_bins,
    istft,
    mix_at_snr,
    stft,
    white_noise,
)
from sepmetrics.errors import (
    ConfigError,
    LengthMismatchError,
    NonFiniteError,
    SampleRateMismatchError,
    SignalTooShortError,
    ZeroReferenceError,
)
from sepmetrics.linalg import _inner

CFG = StftConfig()


def sine_signal(bin_index, length=8192, cfg=CFG, phase=0.7, rate=16000):
    n = np.arange(length)
    return Signal(np.cos(2 * np.pi * bin_index * n / cfg.window_len + phase), rate)


class TestStftConfig:
    def test_defaults(self):
        assert CFG.window_len == 512
        assert CFG.hop == 128
        assert CFG.n_bins == 257
        assert CFG.ola_gain == pytest.approx(2.0)

    def test_hop_must_divide(self):
        with pytest.raises(ValueError):
            StftConfig(512, 100)

    def test_needs_overlap(self):
        with pytest.raises(ValueError):
            StftConfig(512, 512)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(window_len=512.0), "window_len"),
        (dict(hop=128.0), "hop"),
        (dict(window_len=True), "window_len"),
        (dict(hop="128"), "hop"),
    ])
    def test_sizes_must_be_integers(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
            StftConfig(**kwargs)

    def test_numpy_integer_sizes(self):
        cfg = StftConfig(np.int64(256), np.int32(64))
        assert cfg.n_bins == 129

    def test_other_valid_geometries(self):
        for window_len, hop in ((256, 64), (512, 256), (1024, 128), (64, 32)):
            cfg = StftConfig(window_len, hop)
            assert cfg.n_bins == window_len // 2 + 1

    @pytest.mark.parametrize("window_len", [511, 1, 0])
    def test_window_len_must_be_even(self, window_len):
        with pytest.raises(ConfigError, match="^window_len: must be even") as info:
            StftConfig(window_len, 1)
        assert info.value.field == "window_len"

    def test_construction_builds_no_window(self, monkeypatch):
        def no_window(n):
            raise AssertionError("StftConfig built a window")

        monkeypatch.setattr(dsp, "_sqrt_hann", no_window)
        for window_len, hop in ((512, 128), (256, 64), (1024, 512), (2, 1)):
            assert StftConfig(window_len, hop).hop == hop

    def test_every_valid_hop_has_constant_overlap_add(self):
        # The identity StftConfig relies on instead of a check: sin^2 summed
        # over R = N/H >= 2 phases spaced pi/R apart is R/2 = ola_gain.
        for n in range(2, 257, 2):
            window = dsp._sqrt_hann(n)
            for h in range(1, n // 2 + 1):
                if n % h == 0:
                    sums = (window.reshape(n // h, h) ** 2).sum(axis=0)
                    gain = StftConfig(n, h).ola_gain
                    assert np.max(np.abs(sums - gain)) <= 1e-13 * gain, (n, h)


class TestRoundTrip:
    def test_many_lengths(self, rng):
        for _ in range(50):
            length = int(rng.integers(CFG.window_len, 100 * CFG.hop + CFG.hop))
            x = Signal(rng.standard_normal(length), 16000)
            y = istft(stft(x, CFG))
            err = np.linalg.norm(y.samples - x.samples)
            assert err <= 1e-8 * np.linalg.norm(x.samples)
            assert len(y) == length
            assert y.sample_rate_hz == 16000

    def test_non_default_config(self, rng):
        cfg = StftConfig(256, 32)
        x = Signal(rng.standard_normal(1000), 8000)
        y = istft(stft(x, cfg))
        assert np.linalg.norm(y.samples - x.samples) <= 1e-10 * np.linalg.norm(x.samples)

    def test_all_zero_signal(self):
        spec = stft(Signal(np.zeros(2048) + 0.0, 16000))
        # Signal rejects empty, not zero; build via a zeroed mask instead
        assert not np.any(spec.frames == np.nan)

    def test_too_short(self):
        with pytest.raises(SignalTooShortError):
            stft(Signal(np.ones(CFG.window_len - 1), 16000))

    def test_parseval(self, rng):
        x = Signal(rng.standard_normal(5000), 16000)
        spec = stft(x, CFG)
        power = np.abs(spec.frames) ** 2
        power[:, 1:-1] *= 2
        frame_energy = power.sum() / CFG.window_len / CFG.ola_gain
        signal_energy = float(x.samples @ x.samples)
        assert frame_energy == pytest.approx(signal_energy, rel=1e-6)


class TestSineConcentration:
    @staticmethod
    def window_transform(m: int, n: int) -> complex:
        """Closed-form DFT of sin(pi*t/n) at (possibly negative) bin m.

        W[m] = sum_t sin(pi t / n) e^{-2 pi i m t / n}
             = (g(1 - 2m) - g(-(1 + 2m))) / 2i,  g(k) = 2 / (1 - e^{i pi k / n})
        for odd k (geometric series over a half period).
        """
        def g(k):
            return 2.0 / (1.0 - cmath.exp(1j * math.pi * k / n))

        return (g(1 - 2 * m) - g(-(1 + 2 * m))) / 2j

    def test_exact_bin_sine_analytic_oracle(self):
        k0 = 64
        sig = sine_signal(k0)
        spec = stft(sig, CFG)
        tau = spec.frames.shape[0] // 2  # steady-state frame
        measured = np.abs(spec.frames[tau]) ** 2
        measured[1:-1] *= 2
        share = measured / measured.sum()

        n = CFG.window_len
        psi = 0.7 + 2 * math.pi * k0 * (tau * CFG.hop - CFG.pad) / n
        analytic = np.empty(CFG.n_bins)
        for k in range(CFG.n_bins):
            xk = (cmath.exp(1j * psi) * self.window_transform(k - k0, n)
                  + cmath.exp(-1j * psi) * self.window_transform(k + k0, n)) / 2
            analytic[k] = abs(xk) ** 2
        analytic[1:-1] *= 2
        analytic /= analytic.sum()

        assert np.allclose(share, analytic, atol=1e-9)
        assert int(np.argmax(share)) == k0
        # sqrt-Hann leaks into the neighbouring half-bins: the centre bin
        # alone holds ~81% of the frame energy, the 3-bin neighbourhood >99%.
        assert share[k0] == pytest.approx(analytic[k0], rel=1e-6)
        assert share[k0] > 0.80
        assert share[k0 - 1:k0 + 2].sum() >= 0.99

    def test_masking_the_sine_bin_removes_energy(self):
        k0 = 40
        sig = sine_signal(k0)
        spec = stft(sig, CFG)
        gains = np.ones(CFG.n_bins)
        gains[k0 - 1:k0 + 2] = 0.0
        out = istft(apply_mask(spec, MaskVector(gains)))
        # kill the 3-bin neighbourhood and almost nothing remains
        assert np.sum(out.samples ** 2) < 0.01 * np.sum(sig.samples ** 2)


class TestIstftShape:
    def test_single_frame_locality(self):
        frames = np.zeros((20, CFG.n_bins), dtype=complex)
        tau = 7
        gen = np.random.default_rng(0)
        frames[tau] = gen.standard_normal(CFG.n_bins) + 1j * gen.standard_normal(CFG.n_bins)
        spec = Spectrogram(frames, CFG, original_len=19 * CFG.hop + CFG.window_len,
                           sample_rate_hz=16000)
        out = istft(spec).samples
        start = tau * CFG.hop - CFG.pad
        stop = start + CFG.window_len
        support = np.nonzero(np.abs(out) > 1e-300)[0]
        assert support.size > 0
        assert support.min() >= start
        assert support.max() < stop

    def test_zero_frames_zero_signal(self):
        frames = np.zeros((10, CFG.n_bins), dtype=complex)
        spec = Spectrogram(frames, CFG, original_len=1500, sample_rate_hz=16000)
        assert not np.any(istft(spec).samples)

    def test_all_ones_mask_is_identity(self, rng):
        x = Signal(rng.standard_normal(3000), 16000)
        spec = apply_mask(stft(x, CFG), MaskVector(np.ones(CFG.n_bins)))
        y = istft(spec)
        assert np.linalg.norm(y.samples - x.samples) <= 1e-10 * np.linalg.norm(x.samples)

    @pytest.mark.parametrize("window_len, hop", [(512, 128), (512, 256), (64, 8), (16, 8)])
    def test_matches_frame_by_frame_overlap_add(self, window_len, hop):
        cfg = StftConfig(window_len, hop)
        gen = np.random.default_rng([window_len, hop])
        for length in (window_len, window_len + 1, 3 * window_len + 5, 1000):
            # full frame count, and too few frames to cover the signal
            for n_frames in (cfg.frame_count(length), 2):
                frames = (gen.standard_normal((n_frames, cfg.n_bins))
                          + 1j * gen.standard_normal((n_frames, cfg.n_bins)))
                spec = Spectrogram(frames, cfg, length, 16000)
                windowed = np.fft.irfft(frames, n=window_len, axis=1) * cfg.window
                buf = np.zeros(max((n_frames - 1) * hop + window_len, cfg.pad + length))
                for t in range(n_frames):
                    buf[t * hop:t * hop + window_len] += windowed[t]
                expected = buf[cfg.pad:cfg.pad + length] / cfg.ola_gain
                assert np.array_equal(istft(spec).samples, expected), (length, n_frames)


class TestApplyMask:
    def test_zero_mask(self, rng):
        x = Signal(rng.standard_normal(2000), 16000)
        spec = apply_mask(stft(x, CFG), MaskVector(np.zeros(CFG.n_bins)))
        assert not spec.frames.any()

    def test_length_mismatch(self, rng):
        x = Signal(rng.standard_normal(2000), 16000)
        with pytest.raises(LengthMismatchError):
            apply_mask(stft(x, CFG), MaskVector(np.ones(100)))

    def test_frames_are_the_product(self, rng):
        spec = stft(Signal(rng.standard_normal(2000), 8000), CFG)
        before = spec.frames.copy()
        mask = MaskVector(rng.uniform(size=CFG.n_bins))
        out = apply_mask(spec, mask)
        assert isinstance(out, Spectrogram) and out is not spec
        assert np.array_equal(out.frames, spec.frames * mask.gains)
        assert out.frames.dtype == np.complex128
        assert (out.cfg, out.original_len, out.sample_rate_hz) == (CFG, 2000, 8000)
        assert np.array_equal(spec.frames, before)

    def test_spectrogram_shape_must_match_the_bins(self):
        with pytest.raises(ConfigError, match=f"^frames: must be T x {CFG.n_bins}") as info:
            Spectrogram(np.zeros((3, CFG.n_bins - 1), dtype=complex), CFG, 600, 16000)
        assert info.value.field == "frames" and isinstance(info.value, ValueError)
        with pytest.raises(ConfigError, match="^frames: must be T x"):
            Spectrogram(np.zeros(CFG.n_bins, dtype=complex), CFG, 600, 16000)

    def test_mask_must_be_one_dimensional(self):
        with pytest.raises(ConfigError, match="^gains: must be one-dimensional") as info:
            MaskVector(np.ones((2, CFG.n_bins)))
        assert info.value.field == "gains" and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("gains", [[], np.ones(0)])
    def test_empty_mask_raises_a_typed_error(self, gains):
        # numpy's min() once raised its own zero-size-reduction ValueError here
        with pytest.raises(ConfigError, match="^gains: must be one-dimensional and non-empty"):
            MaskVector(gains)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_mask_gain_raises_a_typed_error(self, bad):
        with pytest.raises(NonFiniteError, match="mask gains must be finite") as info:
            MaskVector(np.array([bad, 1.0]))
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_direct_construction_still_validates(self, bad):
        frames = np.zeros((3, CFG.n_bins), dtype=complex)
        frames[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Spectrogram(frames, CFG, original_len=600, sample_rate_hz=16000)

    def test_nonfinite_frame_raises_a_typed_error(self):
        frames = np.ones((3, CFG.n_bins), dtype=complex)
        frames[2] = complex(math.nan, 0.0)
        with pytest.raises(NonFiniteError, match="spectrogram entries must be finite") as info:
            Spectrogram(frames, CFG, original_len=600, sample_rate_hz=16000)
        assert isinstance(info.value, ValueError)

    def test_trusts_the_spectrogram_invariant(self):
        # Documented: apply_mask does not re-scan; frames edited after
        # construction pass through unchecked.
        spec = Spectrogram(np.ones((3, CFG.n_bins), dtype=complex), CFG, 600, 16000)
        spec.frames[1, 2] = np.nan
        out = apply_mask(spec, MaskVector(np.ones(CFG.n_bins)))
        assert np.isnan(out.frames[1, 2])

    def test_mask_bounds(self):
        for gains in ([0.5, 1.0001], [-0.001, 0.5]):
            with pytest.raises(ConfigError, match=r"^gains: must lie in \[0, 1\]") as info:
                MaskVector(np.array(gains))
            assert info.value.field == "gains" and isinstance(info.value, ValueError)

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


class TestSynthesisGram:
    @pytest.mark.parametrize("window_len,hop", [(512, 128), (512, 256), (64, 8), (16, 8)])
    def test_matches_single_bin_istft_oracle(self, window_len, hop, rng):
        # Q = BᵀB, with B's rows the explicit single-bin iSTFT outputs; the
        # lengths end on a hop boundary, one sample past it, and mid-hop.
        cfg = StftConfig(window_len, hop)
        eye = np.eye(cfg.n_bins)
        lengths = (3 * window_len, 3 * window_len + 1, 3 * window_len + hop // 2 + 3)
        specs = [stft(Signal(rng.standard_normal(length)), cfg) for length in lengths]
        # Built directly with two frames more and two fewer than stft makes: istft
        # sizes its output by max(frame span, pad + length), and the Gram truncates
        # the extra frames' rows or zero-fills the missing ones.
        for extra in (2, -2):
            shape = (cfg.frame_count(lengths[-1]) + extra, cfg.n_bins)
            frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            specs.append(Spectrogram(frames, cfg, lengths[-1], 16000))
        for spec in specs:
            basis = np.array([istft(apply_mask(spec, MaskVector(e))).samples for e in eye])
            assert basis.shape == (cfg.n_bins, spec.original_len)
            oracle = basis @ basis.T
            q = _synthesis_gram(spec)
            assert np.max(np.abs(q - oracle)) <= 1e-12 * np.max(np.abs(oracle))
            g = rng.uniform(0.0, 1.0, cfg.n_bins)
            adj = _istft_adjoint(spec, istft(apply_mask(spec, MaskVector(g))).samples)
            assert np.linalg.norm(q @ g - adj) <= 1e-12 * np.linalg.norm(adj)


class TestWhiteNoise:
    def test_deterministic_per_seed(self):
        a = white_noise(4096, seed=42)
        b = white_noise(4096, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_unit_variance(self):
        x = white_noise(10 ** 6, seed=7).samples
        assert 0.99 <= x.var() <= 1.01
        assert abs(x.mean()) < 0.01

    def test_seeds_decorrelated(self):
        a = white_noise(10 ** 5, seed=1).samples
        b = white_noise(10 ** 5, seed=2).samples
        corr = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(corr) < 0.01

    @pytest.mark.parametrize("length", [0, -1])
    def test_length_must_be_positive(self, length):
        with pytest.raises(ConfigError, match="^length: must be >= 1") as info:
            white_noise(length, seed=0)
        assert info.value.field == "length" and isinstance(info.value, ValueError)


class TestMixAtSnr:
    def test_equal_energy_identity_scale(self, rng):
        clean = Signal(rng.standard_normal(4000), 16000)
        noise = Signal(clean.samples.copy(), 16000)
        _, scaled = mix_at_snr(clean, noise, 0.0)
        assert np.allclose(scaled.samples, noise.samples, rtol=1e-12)

    def test_requested_global_snr(self, rng):
        clean = Signal(rng.standard_normal(4000), 16000)
        noise = white_noise(4000, seed=9)
        mixture, scaled = mix_at_snr(clean, noise, 15.0)
        achieved = 10 * math.log10(
            float(clean.samples @ clean.samples) / float(scaled.samples @ scaled.samples)
        )
        assert achieved == pytest.approx(15.0, abs=0.001)
        assert np.allclose(mixture.samples, clean.samples + scaled.samples)

    def test_requested_in_band_snr(self):
        clean = sine_signal(30, length=6000)
        noise = white_noise(6000, seed=3)
        band = (20, 40)
        _, scaled = mix_at_snr(clean, noise, 0.0, band=band, cfg=CFG)
        ce = band_spectral_energy(stft(clean, CFG), band)
        ne = band_spectral_energy(stft(scaled, CFG), band)
        assert 10 * math.log10(ce / ne) == pytest.approx(0.0, abs=0.01)

    def test_zero_in_band_clean(self):
        clean = Signal(np.zeros(4000), 16000)
        noise = white_noise(4000, seed=4)
        with pytest.raises(ZeroReferenceError):
            mix_at_snr(clean, noise, 0.0, band=(5, 6), cfg=CFG)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mix_at_snr(white_noise(100, 0), white_noise(101, 0), 0.0)

    @pytest.mark.parametrize("band", [(250, 400), (-3, 5), (10, 5), (2.5, 10), (5,),
                                      (np.float64(1.0), 5)])
    def test_band_outside_the_spectrum_refused(self, band):
        # Such bands were clipped to (250, 256), or measured nothing and blamed the clean signal.
        clean, noise = white_noise(4000, seed=5), white_noise(4000, seed=6)
        with pytest.raises(ConfigError, match="^band: "):
            band_spectral_energy(stft(clean, CFG), band)
        with pytest.raises(ValueError, match="^band: "):
            mix_at_snr(clean, noise, 0.0, band=band, cfg=CFG)

    @pytest.mark.parametrize("band", [(0, 256), (5, 5), (np.int64(3), np.int64(9))])
    def test_band_inside_the_spectrum_accepted(self, band):
        assert CFG.n_bins == 257
        clean, noise = white_noise(4000, seed=5), white_noise(4000, seed=6)
        _, scaled = mix_at_snr(clean, noise, 0.0, band=band, cfg=CFG)
        ce = band_spectral_energy(stft(clean, CFG), band)
        assert ce == pytest.approx(band_spectral_energy(stft(scaled, CFG), band), rel=1e-9)

    def test_sample_rate_mismatch(self):
        with pytest.raises(SampleRateMismatchError, match="16000 Hz vs 8000 Hz"):
            mix_at_snr(white_noise(100, 1), white_noise(100, 0, 8000), 0.0)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_unreachable_snr_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="^snr_db: must be above -inf and not NaN") as info:
            mix_at_snr(white_noise(100, 1), white_noise(100, 0), snr_db)
        assert info.value.field == "snr_db"

    def test_infinite_snr_adds_no_noise(self):
        clean = white_noise(100, 1)
        mixture, scaled = mix_at_snr(clean, white_noise(100, 0), math.inf)
        assert not scaled.samples.any()
        np.testing.assert_array_equal(mixture.samples, clean.samples)

    def test_silent_noise_rejected(self):
        with pytest.raises(ConfigError, match="^noise: has no energy") as info:
            mix_at_snr(white_noise(100, 1), Signal(np.zeros(100), 16000), 0.0)
        assert info.value.field == "noise" and isinstance(info.value, ValueError)
        with pytest.raises(ConfigError, match="^noise: has no energy in the measured band"):
            mix_at_snr(white_noise(4000, 1), Signal(np.zeros(4000), 16000), 0.0,
                       band=(5, 6), cfg=CFG)

    @pytest.mark.parametrize("snr_db", [-300.0, -20.0, 0.0, 15.0, 300.0])
    def test_gain_keeps_the_power_ratio_form(self, snr_db):
        clean, noise = white_noise(100, 1), white_noise(100, 0)
        _, scaled = mix_at_snr(clean, noise, snr_db)
        ce, ne = _inner(clean.samples), _inner(noise.samples)
        gain = math.sqrt(ce / (10.0 ** (snr_db / 10.0) * ne))
        np.testing.assert_array_equal(scaled.samples, noise.samples * gain)

    @pytest.mark.parametrize("snr_db", [3100.0, -3100.0, -3300.0])
    def test_snr_beyond_the_power_range(self, snr_db):
        # 10^(snr/10) overflows or underflows float64; 10^(-snr/20) does not
        clean, noise = white_noise(100, 1), white_noise(100, 0)
        mixture, scaled = mix_at_snr(clean, noise, snr_db)
        ce, ne = _inner(clean.samples), _inner(noise.samples)
        gain = math.sqrt(ce / ne) * 10.0 ** (-snr_db / 20.0)
        assert 0.0 < gain < math.inf
        np.testing.assert_array_equal(scaled.samples, noise.samples * gain)
        np.testing.assert_array_equal(mixture.samples, clean.samples + scaled.samples)

    def test_gain_underflow_adds_no_noise(self):
        clean = white_noise(100, 1)
        mixture, scaled = mix_at_snr(clean, white_noise(100, 0), 1e308)
        assert not scaled.samples.any()
        np.testing.assert_array_equal(mixture.samples, clean.samples)

    @pytest.mark.parametrize("which", ["clean", "noise"])
    def test_energy_overflow_rejected(self, which):
        # finite samples whose squares overflow: no gain can be formed from them
        loud, quiet = Signal(np.full(100, 1e160), 16000), white_noise(100, 0)
        signals = (loud, quiet) if which == "clean" else (quiet, loud)
        with pytest.raises(NonFiniteError, match="beyond the float64 range"):
            mix_at_snr(*signals, 15.0)

    def test_gain_overflow_rejected(self):
        with pytest.raises(ConfigError, match="^snr_db: noise gain beyond") as info:
            mix_at_snr(white_noise(100, 1), white_noise(100, 0), -1e308)
        assert info.value.field == "snr_db"


class TestBandCenter:
    def test_flat_spectrum_median(self):
        frames = np.ones((5, CFG.n_bins), dtype=complex)
        spec = Spectrogram(frames, CFG, 1000, 16000)
        # cumulative time-averaged energy crosses half-total at the middle bin
        assert band_center(spec, "median-energy") == 128

    def test_single_active_bin(self):
        frames = np.zeros((4, CFG.n_bins), dtype=complex)
        frames[:, 77] = 1.0
        spec = Spectrogram(frames, CFG, 1000, 16000)
        assert band_center(spec, "median-energy") == 77
        assert band_center(spec, "max-magnitude") == 77

    def test_tie_prefers_smaller_index(self):
        frames = np.zeros((4, CFG.n_bins), dtype=complex)
        frames[:, 50] = 1.0
        frames[:, 60] = 1.0
        spec = Spectrogram(frames, CFG, 1000, 16000)
        assert band_center(spec, "max-magnitude") == 50

    def test_scale_invariance(self, rng):
        frames = rng.standard_normal((6, CFG.n_bins)) + 1j * rng.standard_normal((6, CFG.n_bins))
        a = Spectrogram(frames, CFG, 1000, 16000)
        b = Spectrogram(frames * 7.5, CFG, 1000, 16000)
        for mode in ("median-energy", "max-magnitude"):
            assert band_center(a, mode) == band_center(b, mode)

    def test_zero_input(self):
        frames = np.zeros((4, CFG.n_bins), dtype=complex)
        with pytest.raises(ZeroReferenceError):
            band_center(Spectrogram(frames, CFG, 1000, 16000), "median-energy")

    def test_unknown_mode(self):
        spec = Spectrogram(np.ones((4, CFG.n_bins), dtype=complex), CFG, 1000, 16000)
        with pytest.raises(ConfigError, match="^mode: unknown mode 'mean'") as info:
            band_center(spec, "mean")
        assert isinstance(info.value, ValueError)


class TestBands:
    @pytest.mark.parametrize("n_bins", [1, 2, 5, 257])
    def test_band_edges_keep_width_and_center(self, n_bins):
        for center in range(n_bins):
            for width in range(1, n_bins + 3):
                lo, hi = band_edges(center, width, n_bins)
                assert hi - lo + 1 == min(width, n_bins)
                assert 0 <= lo <= center <= hi <= n_bins - 1

    def test_band_edges_centred_or_shifted_inward(self):
        assert band_edges(128, 5, 257) == (126, 130)
        assert band_edges(128, 4, 257) == (127, 130)
        assert band_edges(1, 5, 257) == (0, 4)
        assert band_edges(256, 5, 257) == (252, 256)

    @pytest.mark.parametrize("width", [0, -3])
    def test_band_edges_need_a_bin(self, width):
        with pytest.raises(ConfigError, match="^width_bins: must be >= 1") as info:
            band_edges(100, width, CFG.n_bins)
        assert info.value.field == "width_bins" and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("center", [-1, 257, 1000])
    def test_band_edges_need_a_center_in_the_spectrum(self, center):
        with pytest.raises(ConfigError, match=r"^center: must lie in \[0, 257\)") as info:
            band_edges(center, 3, 257)
        assert info.value.field == "center" and isinstance(info.value, ValueError)

    def test_hz_to_bins_paper_band(self):
        # 1600 Hz at 16 kHz with a 512-point transform: 51.2 -> 51 bins
        assert hz_to_bins(1600.0, 16000, 512) == 51

    def test_hz_to_bins_rounds_to_odd(self):
        assert hz_to_bins(1000.0, 16000, 512) == 33   # exact 32 -> odd neighbour up
        assert hz_to_bins(980.0, 16000, 512) == 31    # 31.36
        assert hz_to_bins(10.0, 16000, 512) == 1      # floor at one bin

    @pytest.mark.parametrize("width, reason", [
        (math.inf, "must be finite"),
        (math.nan, "must be finite"),
        (-5.0, "must be > 0"),
        (0.0, "must be > 0"),
    ], ids=["inf", "nan", "negative", "zero"])
    def test_hz_to_bins_rejects_a_bad_width(self, width, reason):
        with pytest.raises(ConfigError, match=f"^width_hz: {reason}") as info:
            hz_to_bins(width, 16000, 512)
        assert info.value.field == "width_hz"
