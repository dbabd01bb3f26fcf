import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sepmetrics.adversary import AdversaryConfig
from sepmetrics.audio import write_wav
from sepmetrics.errors import ConfigError, SignalTooShortError, SpecValidationError
from sepmetrics.experiments import (
    BAND_WIDTH_HZ,
    ExperimentSpec,
    load_input,
    orthogonal_equal_power_pair,
    run_adversarial,
    run_bandstop_sweep,
    run_progressive_deletion,
    run_rescale_sweep,
    run_to_directory,
)
from sepmetrics.fixtures import speech_like


def small_rescale_spec(**overrides):
    base = dict(kind="rescale-sweep", length=2000, legacy_taps=64,
                mu_grid=(0.5, 1.0, 2.0))
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(SpecValidationError, match="kind"):
            ExperimentSpec(kind="mystery")

    def test_non_monotone_grid(self):
        with pytest.raises(SpecValidationError, match="mu_grid"):
            small_rescale_spec(mu_grid=(1.0, 0.5))

    def test_empty_grid(self):
        with pytest.raises(SpecValidationError, match="gains"):
            ExperimentSpec(kind="bandstop-sweep", gains=())

    def test_out_of_range_gain(self):
        with pytest.raises(SpecValidationError, match="gains"):
            ExperimentSpec(kind="bandstop-sweep", gains=(0.0, 1.5))

    def test_scalar_bounds(self):
        with pytest.raises(SpecValidationError, match="legacy_taps"):
            ExperimentSpec(kind="rescale-sweep", legacy_taps=0)

    def test_from_json_unknown_field(self):
        with pytest.raises(SpecValidationError, match="bogus"):
            ExperimentSpec.from_json_dict({"kind": "rescale-sweep", "bogus": 1})

    @pytest.mark.parametrize("kind, key", [
        ("progressive-deletion", "noise_snr_db"),
        ("bandstop-sweep", "band_width_hz"),
        ("adversarial", "step_size"),
        ("adversarial", "momentum"),
        ("adversarial", "grad_clip"),
    ])
    def test_from_json_refuses_fixed_settings(self, kind, key):
        # module constants, not spec fields: a spec that sets one is never ignored
        with pytest.raises(SpecValidationError) as info:
            ExperimentSpec.from_json_dict({"kind": kind, key: 1.0})
        assert info.value.field == key
        assert info.value.reason == f"unknown field for kind {kind!r}"

    @pytest.mark.parametrize("data, field", [
        ([{"kind": "rescale-sweep"}], "$"),
        ("rescale-sweep", "$"),
        ({"kind": "mystery"}, "kind"),
        ({}, "kind"),
        ({"kind": "rescale-sweep", "stft": [512, 128]}, "stft"),
        ({"kind": "rescale-sweep", "stft": {"window_len": 512, "size": 128}}, "stft"),
        ({"kind": "rescale-sweep", "mu_grid": 1.0}, "mu_grid"),
        ({"kind": "bandstop-sweep", "gains": {"0": 0.5}}, "gains"),
    ])
    def test_from_json_rejects_malformed_structure(self, data, field):
        with pytest.raises(SpecValidationError) as info:
            ExperimentSpec.from_json_dict(data)
        assert info.value.field == field

    def test_from_json_kind_mismatched_field(self):
        with pytest.raises(SpecValidationError, match="gains"):
            ExperimentSpec.from_json_dict({"kind": "rescale-sweep", "gains": [0.5]})

    def test_from_json_bad_stft(self):
        with pytest.raises(SpecValidationError, match="stft"):
            ExperimentSpec.from_json_dict(
                {"kind": "rescale-sweep", "stft": {"window_len": 512, "hop": 100}}
            )

    @pytest.mark.parametrize("kind, fields, field", [
        ("adversarial", '"iterations": 2.5', "iterations"),
        ("rescale-sweep", '"length": 100.5', "length"),
        ("rescale-sweep", '"seed": 1.5', "seed"),
        ("rescale-sweep", '"seed": -1', "seed"),
        ("rescale-sweep", '"legacy_taps": 3.7', "legacy_taps"),
        ("rescale-sweep", '"sample_rate_hz": 16000.5', "sample_rate_hz"),
        ("rescale-sweep", '"stft": {"window_len": 512.0, "hop": 128}', "stft.window_len"),
        ("rescale-sweep", '"stft": {"window_len": 512, "hop": 128.5}', "stft.hop"),
        ("rescale-sweep", '"duration_s": Infinity', "duration_s"),
        ("rescale-sweep", '"mu_grid": [NaN]', "mu_grid"),
        ("progressive-deletion", '"proportions": [0.0, NaN]', "proportions"),
        ("rescale-sweep", '"seed": "3"', "seed"),
        ("rescale-sweep", '"duration_s": null', "duration_s"),
        ("rescale-sweep", '"mu_grid": [true]', "mu_grid"),
        ("rescale-sweep", '"stft": {"window_len": false}', "stft.window_len"),
        ("progressive-deletion", '"input": 0', "input"),
    ])
    def test_from_json_rejects_non_integer_or_non_finite(self, kind, fields, field):
        data = json.loads(f'{{"kind": "{kind}", {fields}}}')
        with pytest.raises(SpecValidationError) as info:
            ExperimentSpec.from_json_dict(data)
        assert info.value.field == field

    @pytest.mark.parametrize("kind, kwargs, field", [
        ("rescale-sweep", dict(length=100.5), "length"),
        ("rescale-sweep", dict(duration_s=math.inf), "duration_s"),
        ("rescale-sweep", dict(legacy_taps=3.7), "legacy_taps"),
        ("rescale-sweep", dict(seed=True), "seed"),
        ("rescale-sweep", dict(sample_rate_hz=16000.0), "sample_rate_hz"),
        ("rescale-sweep", dict(mu_grid=(0.5, math.inf)), "mu_grid"),
        ("rescale-sweep", dict(stft={"window_len": 512, "hop": 128}), "stft"),
        ("progressive-deletion", dict(input_path=5), "input"),
        ("progressive-deletion", dict(proportions=(0.0, "0.5")), "proportions"),
        ("adversarial", dict(iterations=2.5), "iterations"),
    ])
    def test_python_construction_runs_the_json_checks(self, kind, kwargs, field):
        with pytest.raises(SpecValidationError) as info:
            ExperimentSpec(kind=kind, **kwargs)
        assert info.value.field == field

    @pytest.mark.parametrize("kind", ["rescale-sweep", "progressive-deletion",
                                      "bandstop-sweep", "adversarial"])
    @pytest.mark.parametrize("name, value", [
        ("iterations", -1), ("iterations", 2.5),
        ("legacy_taps", 0), ("legacy_taps", 3.7),
        ("stft", {"window_len": 512, "hop": 128}),
    ])
    def test_optimizer_settings_follow_adversary_config(self, kind, name, value):
        # One rule per setting: the spec reports AdversaryConfig's field and reason.
        with pytest.raises(ConfigError) as expected:
            AdversaryConfig(**{name: value})
        with pytest.raises(SpecValidationError) as info:
            ExperimentSpec(kind=kind, **{name: value})
        assert (info.value.field, info.value.reason) == (expected.value.field,
                                                         expected.value.reason)
        assert info.value.field == name

    def test_grids_are_float_tuples(self):
        spec = ExperimentSpec(kind="rescale-sweep", mu_grid=[1, np.float32(2.5), 3])
        assert spec.mu_grid == (1.0, 2.5, 3.0)
        assert all(type(v) is float for v in spec.mu_grid)
        assert ExperimentSpec(kind="rescale-sweep", seed=np.int64(2)).seed == 2

    def test_from_json_roundtrip(self):
        spec = ExperimentSpec.from_json_dict(
            {"kind": "rescale-sweep", "seed": 3, "mu_grid": [0.5, 1.0], "length": 1000}
        )
        assert spec.seed == 3
        assert spec.mu_grid == (0.5, 1.0)


class TestOrthogonalPair:
    def test_orthogonal_equal_power(self):
        s, n = orthogonal_equal_power_pair(4096, seed=11)
        dot = float(s.samples @ n.samples)
        assert abs(dot) < 1e-9 * float(s.samples @ s.samples)
        assert float(n.samples @ n.samples) == pytest.approx(
            float(s.samples @ s.samples), rel=1e-12
        )


class TestRescaleSweep:
    def test_closed_form_and_invariance(self):
        spec = ExperimentSpec(kind="rescale-sweep", length=4000, legacy_taps=32,
                              mu_grid=tuple(round(0.1 * i, 10) for i in range(1, 51)))
        rows = run_rescale_sweep(spec)
        assert len(rows) == 50
        si_values = [r.si_sdr_db for r in rows]
        for row in rows:
            assert row.sd_sdr_db == pytest.approx(
                row.extra["sd_sdr_closed_form_db"], abs=1e-9
            )
            assert row.si_sdr_db == pytest.approx(si_values[0], abs=1e-9)
        xs = [r.x for r in rows]
        assert xs[int(np.argmax([r.sd_sdr_db for r in rows]))] == pytest.approx(1.0)

    def test_snr_gaming_offset(self):
        spec = small_rescale_spec(mu_grid=(0.5, 1.0))
        rows = run_rescale_sweep(spec)
        assert rows[0].snr_db - rows[1].snr_db == pytest.approx(
            10 * math.log10(2.0), abs=1e-3
        )

    def test_mu_zero_gives_sentinels(self):
        rows = run_rescale_sweep(small_rescale_spec(mu_grid=(0.0, 1.0)))
        zero = rows[0]
        assert zero.extra["sd_sdr_closed_form_db"] == -math.inf
        assert zero.snr_db == 0.0
        assert zero.si_sdr_db == zero.sd_sdr_db == zero.sdr_legacy_db == -math.inf
        assert rows[1].extra["sd_sdr_closed_form_db"] == 0.0

    def test_legacy_column_present(self):
        rows = run_rescale_sweep(small_rescale_spec())
        for row in rows:
            assert math.isfinite(row.sdr_legacy_db)


class TestProgressiveDeletion:
    def test_endpoints(self):
        spec = ExperimentSpec(kind="progressive-deletion", duration_s=0.5,
                              proportions=(0.0, 1.0), legacy_taps=64)
        rows = run_progressive_deletion(spec)
        assert len(rows) == 2
        # full mask keeps the 15 dB mixture
        assert rows[0].snr_db == pytest.approx(15.0, abs=0.2)
        # empty mask yields a dead estimate: sentinels, and SNR exactly 0
        assert rows[1].si_sdr_db == -math.inf
        assert rows[1].sd_sdr_db == -math.inf
        assert rows[1].sdr_legacy_db == -math.inf
        assert rows[1].snr_db == 0.0


class TestRowConsistency:
    def test_rows_respect_metric_orderings(self):
        # recompute the optimal gain from raw signals and check that each
        # emitted row satisfies sd <= si and sd <= snr + 10*log10(max(a^2, 1))
        from sepmetrics import dsp

        spec = ExperimentSpec(kind="bandstop-sweep", duration_s=0.5,
                              gains=(0.0, 0.25, 0.5, 0.75, 1.0), legacy_taps=64)
        rows = run_bandstop_sweep(spec)
        clean = load_input(spec)
        clean_spec = dsp.stft(clean, spec.stft)
        center = dsp.band_center(clean_spec, "max-magnitude")
        width = dsp.hz_to_bins(BAND_WIDTH_HZ, clean.sample_rate_hz,
                               spec.stft.window_len)
        band = dsp.band_edges(center, width, spec.stft.n_bins)
        raw = dsp.white_noise(len(clean), spec.seed + 1, clean.sample_rate_hz)
        pass_gains = np.zeros(spec.stft.n_bins)
        pass_gains[band[0]:band[1] + 1] = 1.0
        band_noise = dsp.istft(dsp.apply_mask(dsp.stft(raw, spec.stft),
                                              dsp.MaskVector(pass_gains)))
        mixture, _ = dsp.mix_at_snr(clean, band_noise, 0.0, band=band, cfg=spec.stft)
        mix_spec = dsp.stft(mixture, spec.stft)
        for row in rows:
            stop = np.ones(spec.stft.n_bins)
            stop[band[0]:band[1] + 1] = row.x
            est = dsp.istft(dsp.apply_mask(mix_spec, dsp.MaskVector(stop))).samples
            ref = clean.samples
            alpha = float(est @ ref) / float(ref @ ref)
            assert row.sd_sdr_db <= row.si_sdr_db + 1e-9
            bound = row.snr_db + 10 * math.log10(max(alpha * alpha, 1.0))
            assert row.sd_sdr_db <= bound + 1e-9


class TestAdversarialRun:
    def test_trajectory_rows(self):
        spec = ExperimentSpec(kind="adversarial", duration_s=0.25, iterations=5,
                              legacy_taps=64)
        result, rows = run_adversarial(spec)
        assert len(rows) == 6
        assert rows[0].si_sdr_db == result.trajectory[0]
        assert [r.x for r in rows] == list(range(6))


class TestRunToDirectory:
    def test_rescale_outputs_and_determinism(self, tmp_path):
        spec = small_rescale_spec()
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_to_directory(spec, str(out_a))
        run_to_directory(spec, str(out_b))
        data_a = (out_a / "rescale_sweep.csv").read_bytes()
        data_b = (out_b / "rescale_sweep.csv").read_bytes()
        assert data_a == data_b
        header = data_a.decode().splitlines()[0]
        assert header == "mu,sdr_legacy_db,snr_db,si_sdr_db,sd_sdr_db,sd_sdr_closed_form_db"

    def test_default_csv_headers(self, tmp_path):
        for kind in ("rescale-sweep", "progressive-deletion", "bandstop-sweep", "adversarial"):
            run_to_directory(ExperimentSpec(kind=kind), str(tmp_path))
        headers = {p.name: p.read_text().splitlines()[0] for p in tmp_path.glob("*.csv")}
        curve = "sdr_legacy_db,snr_db,si_sdr_db,sd_sdr_db"
        assert headers == {
            "rescale_sweep.csv": f"mu,{curve},sd_sdr_closed_form_db",
            "progressive_deletion.csv": f"proportion,{curve}",
            "bandstop_sweep.csv": f"gain,{curve}",
            "trajectory.csv": "iteration,si_sdr_db",
            "mask.csv": "bin,gain",
            "adversarial.csv": "iterations,final_si_sdr_db,final_legacy_sdr_db,gap_db",
        }

    def test_adversarial_outputs(self, tmp_path):
        spec = ExperimentSpec(kind="adversarial", duration_s=0.25, iterations=4,
                              legacy_taps=64)
        summary = run_to_directory(spec, str(tmp_path))
        trajectory = (tmp_path / "trajectory.csv").read_text().splitlines()
        mask = (tmp_path / "mask.csv").read_text().splitlines()
        assert len(trajectory) == 1 + 5          # header + iterations+1 rows
        assert len(mask) == 1 + spec.stft.n_bins  # header + one row per bin
        assert os.path.exists(tmp_path / "adversarial.csv")
        assert "final_si_sdr_db" in summary

    def test_input_file_used(self, tmp_path):
        from sepmetrics.fixtures import speech_like
        wav = tmp_path / "in.wav"
        write_wav(speech_like(duration_s=0.3, seed=9), str(wav))
        spec = ExperimentSpec(kind="progressive-deletion", input_path=str(wav),
                              proportions=(0.0,), legacy_taps=32)
        clean = load_input(spec)
        assert len(clean) == int(0.3 * 16000)
        rows = run_progressive_deletion(spec)
        assert len(rows) == 1


@pytest.mark.parametrize("n", [0, 1, 2])
def test_speech_like_needs_three_samples(n):
    with pytest.raises(SignalTooShortError, match="at least 3 samples"):
        speech_like(duration_s=n / 16000)
    assert len(speech_like(duration_s=3 / 16000)) == 3


_RUN_DEFAULT_SPECS = """
import sys
from sepmetrics.experiments import ExperimentSpec, run_to_directory
for kind in ("rescale-sweep", "progressive-deletion", "bandstop-sweep"):
    run_to_directory(ExperimentSpec(kind=kind), sys.argv[1] + "/" + kind)
"""


def test_default_csvs_do_not_depend_on_blas_threads(tmp_path):
    # Energies are reduced by numpy, not by BLAS ddot, whose bits change with
    # the thread count. The count is fixed at process start, so each run is a
    # subprocess with its own environment.
    import sepmetrics
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepmetrics.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", _RUN_DEFAULT_SPECS, str(out)],
                       env=env, check=True)
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


_STORED_SEED0 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "expected_seed0.json")


@pytest.mark.parametrize("kind, runner", [
    ("rescale-sweep", run_rescale_sweep),
    ("progressive-deletion", run_progressive_deletion),
    ("bandstop-sweep", run_bandstop_sweep),
])
def test_default_sweeps_match_stored_seed0_values(kind, runner):
    # The benchmark's stored full-precision values; a fast path that moves
    # any of them fails here as well as in the benchmark.
    with open(_STORED_SEED0, encoding="utf-8") as fh:
        stored = json.load(fh)["sweeps"][kind]
    rows = runner(ExperimentSpec.from_json_dict({"kind": kind, "seed": 0}))
    got = [[r.x, r.sdr_legacy_db, r.snr_db, r.si_sdr_db, r.sd_sdr_db] for r in rows]
    assert len(got) == len(stored)
    for i, (g_row, w_row) in enumerate(zip(got, stored)):
        for g, w in zip(g_row, w_row, strict=True):
            assert g == w or abs(g - w) <= 1e-9, (i, g_row, w_row)
