import json
import logging
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from sepmetrics import cli, errors, metrics
from sepmetrics.audio import Signal, read_wav, write_wav
from sepmetrics.cli import gap_db, main
from sepmetrics.fixtures import speech_like
from sepmetrics.metrics import si_sdr


@pytest.fixture()
def wav_pair(tmp_path, rng):
    ref = Signal(rng.standard_normal(2000) * 0.1, 16000)
    est = Signal(ref.samples * 0.8 + 0.01 * rng.standard_normal(2000), 16000)
    ref_path = str(tmp_path / "ref.wav")
    est_path = str(tmp_path / "est.wav")
    write_wav(ref, ref_path)
    write_wav(est, est_path)
    return ref_path, est_path


class TestEval:
    def test_stdout_csv(self, wav_pair, capsys):
        ref, est = wav_pair
        assert main(["eval", "--ref", ref, "--est", est]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert header == "snr_db,si_sdr_db,sd_sdr_db,min_snr_sdsdr_db"
        values = [float(v) for v in row.split(",")]
        assert all(math.isfinite(v) for v in values)

    def test_out_file_matches_stdout(self, wav_pair, tmp_path, capsys):
        ref, est = wav_pair
        main(["eval", "--ref", ref, "--est", est])
        stdout_text = capsys.readouterr().out
        out_path = str(tmp_path / "m.csv")
        assert main(["eval", "--ref", ref, "--est", est, "--out", out_path]) == 0
        with open(out_path) as fh:
            assert fh.read() == stdout_text

    def test_self_estimate_inf(self, wav_pair, capsys):
        ref, _ = wav_pair
        assert main(["eval", "--ref", ref, "--est", ref]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row == "inf,inf,inf,inf"

    def test_legacy_taps_one_matches_si_sdr(self, wav_pair, capsys):
        ref, est = wav_pair
        main(["eval", "--ref", ref, "--est", est, "--legacy-taps", "1"])
        header, row = capsys.readouterr().out.strip().split("\n")
        cols = dict(zip(header.split(","), [float(v) for v in row.split(",")]))
        assert cols["legacy_sdr_db"] == pytest.approx(cols["si_sdr_db"], abs=1e-9)

    def test_interferer_enables_sir(self, tmp_path, rng, capsys):
        sigs = {name: Signal(rng.standard_normal(1500) * 0.1, 16000)
                for name in ("ref", "interf")}
        est = Signal(sigs["ref"].samples + 0.5 * sigs["interf"].samples, 16000)
        paths = {}
        for name, sig in {**sigs, "est": est}.items():
            paths[name] = str(tmp_path / f"{name}.wav")
            write_wav(sig, paths[name])
        main(["eval", "--ref", paths["ref"], "--est", paths["est"],
              "--interf", paths["interf"]])
        header = capsys.readouterr().out.split("\n")[0]
        assert "si_sir_db" in header and "si_sar_db" in header

    def test_interferer_and_legacy_header(self, wav_pair, tmp_path, rng, capsys):
        ref, est = wav_pair
        interf = str(tmp_path / "interf.wav")
        write_wav(Signal(rng.standard_normal(2000) * 0.1, 16000), interf)
        assert main(["eval", "--ref", ref, "--est", est, "--interf", interf,
                     "--legacy-taps", "8"]) == 0
        assert capsys.readouterr().out.split("\n")[0] == (
            "snr_db,si_sdr_db,sd_sdr_db,min_snr_sdsdr_db,si_sir_db,si_sar_db,"
            "legacy_sdr_db,legacy_sir_db,legacy_sar_db")

    def test_out_in_missing_directory_exit_2(self, wav_pair, tmp_path, capsys):
        ref, est = wav_pair
        out_path = str(tmp_path / "missing" / "m.csv")
        assert main(["eval", "--ref", ref, "--est", est, "--out", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out_path}" in captured.err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("taps, code", [("0", 2), ("-5", 2), ("x", 2), ("2001", 3)])
    def test_legacy_taps_bounds(self, wav_pair, capsys, command, taps, code):
        ref, est = wav_pair  # 2000 samples each
        argv = [command, "--ref", ref, "--est", est, "--legacy-taps", taps]
        if code == 2:  # rejected while parsing the arguments
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "--legacy-taps: must be an integer >= 1" in capsys.readouterr().err
        else:
            assert main(argv) == 3
            assert "exceeds the signal length" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "eval-set"])
    def test_out_in_missing_directory_reads_no_wav(self, wav_pair, tmp_path, monkeypatch,
                                                   capsys, command):
        def no_read(path, channel=None):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_wav", no_read)
        ref, est = wav_pair
        out_path = str(tmp_path / "missing" / "x.csv")
        if command == "eval":
            argv = ["eval", "--ref", ref, "--est", est]
        else:
            argv = ["eval-set", "--refs", ref, "--ests", est, "--permute"]
        assert main(argv + ["--out", out_path]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out_path}: its directory does not exist\n")

    @pytest.mark.parametrize("taps, code", [("1365", 0), ("1400", 3)])
    def test_legacy_problem_size_cap(self, tmp_path, rng, capsys, taps, code):
        # ref, est and two interferers: 3 sources, so 1365 taps are 4095 unknowns
        paths = [str(tmp_path / f"{name}.wav") for name in ("ref", "est", "a", "b")]
        for path in paths:
            write_wav(Signal(rng.standard_normal(3000) * 0.1, 16000), path)
        ref, est, a, b = paths
        assert main(["eval", "--ref", ref, "--est", est, "--interf", a, "--interf", b,
                     "--legacy-taps", taps]) == code
        if code == 3:
            assert capsys.readouterr().err == (
                "error: taps*sources = 4200 exceeds the cap of 4096\n")

    def test_missing_file_exit_2(self, tmp_path):
        missing = str(tmp_path / "none.wav")
        assert main(["eval", "--ref", missing, "--est", missing]) == 2

    def test_length_mismatch_exit_3(self, tmp_path, rng):
        a = str(tmp_path / "a.wav")
        b = str(tmp_path / "b.wav")
        write_wav(Signal(rng.standard_normal(100), 16000), a)
        write_wav(Signal(rng.standard_normal(101), 16000), b)
        assert main(["eval", "--ref", a, "--est", b]) == 3

    def test_truncate_allows_mismatch(self, tmp_path, rng):
        a = str(tmp_path / "a.wav")
        b = str(tmp_path / "b.wav")
        write_wav(Signal(rng.standard_normal(100), 16000), a)
        write_wav(Signal(rng.standard_normal(101), 16000), b)
        assert main(["eval", "--ref", a, "--est", b, "--truncate"]) == 0

    def test_zero_reference_exit_3(self, tmp_path, rng):
        z = str(tmp_path / "z.wav")
        e = str(tmp_path / "e.wav")
        write_wav(Signal(np.zeros(100), 16000), z)
        write_wav(Signal(rng.standard_normal(100), 16000), e)
        assert main(["eval", "--ref", z, "--est", e]) == 3


class TestEvalSet:
    @pytest.fixture()
    def file_sets(self, tmp_path, rng):
        refs_dir = tmp_path / "refs"
        ests_dir = tmp_path / "ests"
        refs_dir.mkdir()
        ests_dir.mkdir()
        a = Signal(rng.standard_normal(800) * 0.1, 16000)
        b = Signal(rng.standard_normal(800) * 0.1, 16000)
        write_wav(a, str(refs_dir / "0.wav"))
        write_wav(b, str(refs_dir / "1.wav"))
        # estimates swapped
        write_wav(b, str(ests_dir / "0.wav"))
        write_wav(a, str(ests_dir / "1.wav"))
        return str(refs_dir), str(ests_dir)

    def test_permute_finds_swap(self, file_sets, capsys):
        refs, ests = file_sets
        assert main(["eval-set", "--refs", refs, "--ests", ests, "--permute"]) == 0
        captured = capsys.readouterr()
        assert "permutation: 1,0" in captured.err
        lines = captured.out.strip().split("\n")
        pair_rows = [l for l in lines if l.startswith("pair")]
        assert len(pair_rows) == 2
        assert pair_rows[0].split(",")[4] == "1"  # est_index column
        assert pair_rows[1].split(",")[4] == "0"

    def test_identity_without_permute(self, file_sets, capsys):
        refs, ests = file_sets
        assert main(["eval-set", "--refs", refs, "--ests", ests]) == 0
        assert "permutation: 0,1" in capsys.readouterr().err

    @pytest.mark.parametrize("permute", [[], ["--permute"]], ids=["identity", "permute"])
    def test_header(self, file_sets, capsys, permute):
        refs, ests = file_sets
        assert main(["eval-set", "--refs", refs, "--ests", ests, *permute]) == 0
        assert capsys.readouterr().out.split("\n")[0] == (
            "row,index,ref,est,est_index,snr_db,si_sdr_db,sd_sdr_db,min_snr_sdsdr_db")

    def test_out_file_matches_stdout(self, file_sets, tmp_path, capsys):
        refs, ests = file_sets
        argv = ["eval-set", "--refs", refs, "--ests", ests, "--permute"]
        assert main(argv) == 0
        stdout_text = capsys.readouterr().out
        out_path = tmp_path / "set.csv"
        assert main(argv + ["--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_bytes() == stdout_text.encode("utf-8")

    def test_out_in_missing_directory_exit_2(self, file_sets, tmp_path, capsys):
        refs, ests = file_sets
        out_path = str(tmp_path / "missing" / "set.csv")
        assert main(["eval-set", "--refs", refs, "--ests", ests, "--out", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out_path}" in captured.err

    def test_mean_row(self, file_sets, capsys):
        refs, ests = file_sets
        main(["eval-set", "--refs", refs, "--ests", ests])
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        pairs = [dict(zip(header, l.split(","))) for l in lines[1:] if l.startswith("pair")]
        mean_row = dict(zip(header, next(l for l in lines if l.startswith("mean")).split(",")))
        values = [float(p["si_sdr_db"]) for p in pairs]
        finite = [v for v in values if math.isfinite(v)]
        assert float(mean_row["si_sdr_db"]) == pytest.approx(sum(finite) / len(finite))

    def test_summary_drop_counts_logged(self, tmp_path, rng, capsys, caplog):
        d_ref, d_est = tmp_path / "r", tmp_path / "e"
        d_ref.mkdir()
        d_est.mkdir()
        sigs = [Signal(rng.standard_normal(800) * 0.1, 16000) for _ in range(3)]
        for k, sig in enumerate(sigs):
            write_wav(sig, str(d_ref / f"{k}.wav"))
            # pair 0 is an exact copy: its SNR, SI-SDR and SD-SDR are +inf
            est = sig if k == 0 else Signal(sig.samples + 0.05 * rng.standard_normal(800), 16000)
            write_wav(est, str(d_est / f"{k}.wav"))
        argv = ["eval-set", "--refs", str(d_ref), "--ests", str(d_est)]
        assert main(argv) == 0
        quiet = capsys.readouterr().out
        caplog.set_level(logging.DEBUG, logger="sepmetrics")
        assert main(argv) == 0
        assert capsys.readouterr().out == quiet
        logged = [r.getMessage() for r in caplog.records if r.name == "sepmetrics.cli"]
        for label in ("mean", "median"):
            for col in ("snr_db", "si_sdr_db", "sd_sdr_db", "min_snr_sdsdr_db"):
                assert f"eval-set {label} of {col}: dropped 1 of 3 non-finite rows" in logged

    def test_exact_copies_summarise_to_inf(self, tmp_path, rng, capsys):
        # Swapped exact copies: --permute pairs each estimate with its copy, so
        # every metric of every pair, and so every summary, is +inf.
        x, y = rng.standard_normal((2, 1600))
        for sub, sigs in (("refs", (x, y)), ("ests", (y, x))):
            (tmp_path / sub).mkdir()
            for name, s in zip(("a.wav", "b.wav"), sigs):
                write_wav(Signal(s, 16000), str(tmp_path / sub / name))
        assert main(["eval-set", "--refs", str(tmp_path / "refs"),
                     "--ests", str(tmp_path / "ests"), "--permute"]) == 0
        *_, mean, median = capsys.readouterr().out.strip().split("\n")
        assert mean == "mean,,,,,inf,inf,inf,inf"
        assert median == "median,,,,,inf,inf,inf,inf"

    @pytest.mark.parametrize("values, want", [
        ([math.inf, math.inf], math.inf),
        ([-math.inf, -math.inf], -math.inf),
        ([math.inf, -math.inf], math.nan),
        ([math.inf, math.nan], math.nan),
    ], ids=["all-inf", "all-minus-inf", "mixed-signs", "inf-and-nan"])
    def test_summary_without_finite_values(self, values, want):
        rows = [{"x": v} for v in values]
        for reducer, label in ((statistics.fmean, "mean"), (statistics.median, "median")):
            got = cli._finite_summary(rows, ["x"], reducer, label)["x"]
            assert got == want or math.isnan(got) and math.isnan(want), (label, got)

    def test_single_pair_identity(self, tmp_path, rng, capsys):
        d_ref, d_est = tmp_path / "r1", tmp_path / "e1"
        d_ref.mkdir()
        d_est.mkdir()
        sig = Signal(rng.standard_normal(500) * 0.1, 16000)
        write_wav(sig, str(d_ref / "only.wav"))
        write_wav(sig, str(d_est / "only.wav"))
        assert main(["eval-set", "--refs", str(d_ref), "--ests", str(d_est),
                     "--permute"]) == 0
        assert "permutation: 0" in capsys.readouterr().err

    def test_count_mismatch_exit_3(self, file_sets, tmp_path, rng):
        refs, ests = file_sets
        write_wav(Signal(rng.standard_normal(800), 16000), str(tmp_path / "ests" / "2.wav"))
        assert main(["eval-set", "--refs", refs, "--ests", ests]) == 3

    def test_no_matching_files_exit_3(self, tmp_path, capsys):
        (tmp_path / "refs").mkdir()
        assert main(["eval-set", "--refs", str(tmp_path / "refs"),
                     "--ests", str(tmp_path / "*.wav")]) == 3
        assert "no input files matched" in capsys.readouterr().err

    def test_glob_patterns(self, file_sets, capsys):
        refs, ests = file_sets
        assert main(["eval-set", "--refs", refs + "/*.wav",
                     "--ests", ests + "/*.wav"]) == 0

    def test_truncate_is_per_pair(self, tmp_path, rng, capsys):
        # pair 0 is long, pair 1 short; each pair also differs in length inside
        refs_dir, ests_dir = tmp_path / "refs", tmp_path / "ests"
        refs_dir.mkdir()
        ests_dir.mkdir()
        for name, n_ref, n_est in (("0.wav", 4000, 3900), ("1.wav", 1000, 1200)):
            ref = rng.standard_normal(n_ref) * 0.1
            est = rng.standard_normal(n_est) * 0.02
            n = min(n_ref, n_est)
            est[:n] += 0.8 * ref[:n]
            write_wav(Signal(ref, 16000), str(refs_dir / name))
            write_wav(Signal(est, 16000), str(ests_dir / name))

        def csv_rows():
            header, *lines = capsys.readouterr().out.strip().split("\n")
            return [dict(zip(header.split(","), line.split(","))) for line in lines]

        assert main(["eval-set", "--refs", str(refs_dir), "--ests", str(ests_dir),
                     "--truncate"]) == 0
        pairs = [r for r in csv_rows() if r["row"] == "pair"]
        for name, row in zip(("0.wav", "1.wav"), pairs):
            assert main(["eval", "--ref", str(refs_dir / name),
                         "--est", str(ests_dir / name), "--truncate"]) == 0
            single = csv_rows()[0]
            for col in ("snr_db", "si_sdr_db", "sd_sdr_db", "min_snr_sdsdr_db"):
                assert row[col] == single[col]

        # with --permute every reference meets every estimate: cut set-wide
        assert main(["eval-set", "--refs", str(refs_dir), "--ests", str(ests_dir),
                     "--permute", "--truncate"]) == 0
        permuted = [r for r in csv_rows() if r["row"] == "pair"]
        ref0 = read_wav(str(refs_dir / "0.wav")).samples[:1000]
        est0 = read_wav(str(ests_dir / "0.wav")).samples[:1000]
        assert float(permuted[0]["si_sdr_db"]) == pytest.approx(si_sdr(ref0, est0), abs=1e-6)


class TestMixedSampleRates:
    """A 16 kHz reference against an 8 kHz estimate of equal length is refused."""

    @pytest.fixture()
    def files(self, tmp_path, rng):
        x = rng.standard_normal(1200) * 0.1
        for sub in ("refs", "ests"):
            (tmp_path / sub).mkdir()
        paths = {}
        for k in range(2):
            for sub, rate in (("refs", 16000), ("ests", 8000 if k == 1 else 16000)):
                paths[sub, k] = str(tmp_path / sub / f"{k}.wav")
                write_wav(Signal(np.roll(x, k), rate), paths[sub, k])
        return tmp_path, paths

    def check(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "16000 Hz" in err and "8000 Hz" in err

    def test_eval(self, files, capsys):
        _, paths = files
        self.check(["eval", "--ref", paths["refs", 1], "--est", paths["ests", 1]], capsys)

    def test_eval_interferer(self, files, capsys):
        _, paths = files
        self.check(["eval", "--ref", paths["refs", 0], "--est", paths["ests", 0],
                    "--interf", paths["ests", 1]], capsys)

    @pytest.mark.parametrize("permute", [[], ["--permute"]])
    def test_eval_set(self, files, capsys, permute):
        root, _ = files
        self.check(["eval-set", "--refs", str(root / "refs"), "--ests", str(root / "ests"),
                    *permute], capsys)

    def test_compare(self, files, capsys):
        _, paths = files
        self.check(["compare", "--ref", paths["refs", 0], "--est", paths["ests", 0],
                    "--est", paths["ests", 1], "--legacy-taps", "8"], capsys)


class TestEvalSetStreaming:
    """Without --permute, eval-set holds one pair at a time."""

    def write_set(self, root, n_pairs, rng, samples=16000):
        refs, ests = root / "refs", root / "ests"
        refs.mkdir(parents=True)
        ests.mkdir()
        for k in range(n_pairs):
            x = rng.standard_normal(samples) * 0.1
            write_wav(Signal(x, 16000), str(refs / f"{k:02d}.wav"))
            write_wav(Signal(0.9 * x + 0.01 * rng.standard_normal(samples), 16000),
                      str(ests / f"{k:02d}.wav"))
        return ["eval-set", "--refs", str(refs), "--ests", str(ests)]

    def test_reads_interleave_with_scoring(self, tmp_path, rng, monkeypatch, capsys):
        argv = self.write_set(tmp_path, 3, rng, samples=500)
        events = []
        read, evaluate = cli.read_wav, metrics.evaluate

        def logged_read(path, channel=None):
            events.append("read " + path.rsplit("/", 2)[1])
            return read(path, channel)

        def logged_evaluate(*args, **kwargs):
            events.append("evaluate")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli, "read_wav", logged_read)
        monkeypatch.setattr(metrics, "evaluate", logged_evaluate)
        assert main(argv) == 0
        assert events == ["read refs", "read ests", "evaluate"] * 3

    def test_peak_memory_does_not_grow_with_pairs(self, tmp_path, rng, capsys):
        peaks = []
        for n_pairs in (2, 16):
            argv = self.write_set(tmp_path / str(n_pairs), n_pairs, rng)
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            capsys.readouterr()
        # holding all 16 pairs would add 14 * 2 * 128 kB of float64 samples
        assert peaks[1] < peaks[0] + 64 * 1024

    def test_first_failing_pair_is_reported(self, tmp_path, rng, capsys):
        argv = self.write_set(tmp_path, 3, rng, samples=500)
        (tmp_path / "ests" / "00.wav").write_bytes(b"not a wav")
        (tmp_path / "refs" / "02.wav").write_bytes(b"not a wav either")
        assert main(argv) == 2
        assert "ests/00.wav" in capsys.readouterr().err


class TestExperimentCmd:
    def test_rescale_spec(self, tmp_path, capsys):
        spec = {"kind": "rescale-sweep", "length": 1500, "legacy_taps": 32,
                "mu_grid": [0.5, 1.0, 2.0]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "rescale_sweep.csv").exists()
        assert "kind=rescale-sweep" in capsys.readouterr().out

    def test_same_spec_identical_bytes(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"kind": "rescale-sweep", "length": 1200, "legacy_taps": 16,
             "mu_grid": [0.5, 1.0]}
        ))
        main(["experiment", "--spec", str(spec_path), "--out-dir", str(tmp_path / "1")])
        main(["experiment", "--spec", str(spec_path), "--out-dir", str(tmp_path / "2")])
        assert ((tmp_path / "1" / "rescale_sweep.csv").read_bytes()
                == (tmp_path / "2" / "rescale_sweep.csv").read_bytes())

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "rescale-sweep", "mu_grid": []}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "mu_grid" in capsys.readouterr().err

    def test_non_integer_stft_size_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "rescale-sweep",
                                         "stft": {"window_len": 512.0, "hop": 128}}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "stft.window_len: must be an integer" in capsys.readouterr().err

    def test_unreadable_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "none.json"
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert f"error: cannot read {spec_path}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fixed_setting_in_spec_exit_2(self, tmp_path, capsys):
        # momentum is a module constant, not a spec field: refused, never ignored
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "adversarial", "iterations": 3,
                                         "momentum": 0.5}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "error: momentum: unknown field for kind 'adversarial'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_json_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{nope")
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 2

    def test_rescale_mu_zero_writes_sentinels(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "rescale-sweep", "length": 1200,
                                         "legacy_taps": 16, "mu_grid": [0.0, 1.0]}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "rescale_sweep.csv").read_text().splitlines()
        assert lines[1] == "0,-inf,0,-inf,-inf,-inf"

    def test_signal_too_short_for_fixture_exit_3(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "progressive-deletion",
                                         "duration_s": 0.0001}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 3
        assert "at least 3 samples" in capsys.readouterr().err

    def test_energy_overflow_exit_3(self, tmp_path, capsys):
        # finite samples whose energy exceeds the float64 range
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "rescale-sweep", "length": 1200,
                                         "legacy_taps": 16, "mu_grid": [1.0, 1e300]}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "out")]) == 3
        assert "an energy beyond the float64 range" in capsys.readouterr().err

    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "rescale-sweep", "length": 1200,
                                         "legacy_taps": 16, "mu_grid": [1.0]}))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot create {spec_path}" in captured.err

    def test_missing_input_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"kind": "progressive-deletion", "input": str(tmp_path / "none.wav")}
        ))
        assert main(["experiment", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 2


class TestCompare:
    def test_filtered_estimate_warns(self, tmp_path, capsys):
        clean = speech_like(duration_s=0.5, seed=4)
        gen = np.random.default_rng(5)
        kernel = gen.standard_normal(50)
        filtered = np.convolve(clean.samples, kernel)[:len(clean)]
        filtered[-49:] = 0.0  # keep the tail inside the projection span
        ref_path = str(tmp_path / "ref.wav")
        est_path = str(tmp_path / "est.wav")
        write_wav(clean, ref_path)
        write_wav(Signal(filtered, 16000), est_path)
        assert main(["compare", "--ref", ref_path, "--est", est_path]) == 0
        out = capsys.readouterr().out
        assert "WARN" in out

    def test_self_estimate_ok(self, tmp_path, capsys):
        clean = speech_like(duration_s=0.3, seed=6)
        ref_path = str(tmp_path / "ref.wav")
        write_wav(clean, ref_path)
        assert main(["compare", "--ref", ref_path, "--est", ref_path,
                     "--legacy-taps", "64"]) == 0
        out = capsys.readouterr().out
        line = out.strip().split("\n")[1]
        assert line.split()[-1] == "ok"

    @pytest.mark.parametrize("threshold", ["nan", "NaN", "x"])
    def test_threshold_must_be_a_number(self, wav_pair, capsys, threshold):
        ref, est = wav_pair
        with pytest.raises(SystemExit) as info:
            main(["compare", "--ref", ref, "--est", est, "--threshold", threshold])
        assert info.value.code == 2
        assert "--threshold: must be a number" in capsys.readouterr().err

    def test_threshold_sets_the_flag(self, tmp_path, capsys):
        clean = speech_like(duration_s=0.3, seed=6)
        lowpassed = np.convolve(clean.samples, np.ones(8) / 8)[:len(clean)]
        ref_path, est_path = str(tmp_path / "ref.wav"), str(tmp_path / "est.wav")
        write_wav(clean, ref_path)
        write_wav(Signal(lowpassed, 16000), est_path)
        flags = {}
        for threshold in ("-1000", "1000"):
            assert main(["compare", "--ref", ref_path, "--est", est_path,
                         "--legacy-taps", "64", "--threshold", threshold]) == 0
            flags[threshold] = capsys.readouterr().out.strip().split("\n")[1].split()[-1]
        assert flags == {"-1000": "WARN", "1000": "ok"}

    def test_gap_rules(self):
        assert gap_db(math.inf, math.inf) == 0.0
        assert gap_db(-math.inf, -math.inf) == 0.0
        assert gap_db(-math.inf, math.inf) == -math.inf
        assert gap_db(math.inf, 10.0) == math.inf
        assert gap_db(12.0, 2.0) == 10.0


class TestExitCategories:
    """Every error class in sepmetrics.errors exits by its category base."""

    CLASSES = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SepMetricsError)
               and c.__module__ == errors.__name__]

    def test_only_the_roots_are_uncategorised(self):
        categories = (errors.InputError, errors.PreconditionError)
        uncategorised = {c for c in self.CLASSES if not issubclass(c, categories)}
        assert uncategorised == {errors.SepMetricsError, errors.ConfigError}
        assert not any(issubclass(c, errors.InputError) and issubclass(c, errors.PreconditionError)
                       for c in self.CLASSES)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_exit_code(self, cls, monkeypatch, capsys):
        def raise_it(args):
            raise cls("field", "reason") if issubclass(cls, errors.ConfigError) else cls("reason")

        monkeypatch.setattr(cli, "_cmd_compare", raise_it)
        if issubclass(cls, errors.InputError):
            expected = 2
        elif issubclass(cls, errors.PreconditionError):
            expected = 3
        else:
            expected = 1
        assert main(["compare", "--ref", "r.wav", "--est", "e.wav"]) == expected
        assert capsys.readouterr().err.endswith("reason\n")

    def test_unexpected_error_exit_1(self, monkeypatch, capsys):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_compare", fail)
        assert main(["compare", "--ref", "r.wav", "--est", "e.wav"]) == 1
        assert capsys.readouterr().err == "unexpected error: boom\n"
