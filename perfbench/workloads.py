"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup`` (inside the
timed set-up), lists the operations one pass performs, parses what each
operation wrote, and verifies the first pass in depth. Later passes must
reproduce the first pass's parsed outputs.

* ``sweeps``: the default rescale, progressive-deletion and bandstop specs
  through ``experiments.run_to_directory``. 111 legacy projections per pass
  reuse one reference per spec, so this is where a factor-once projector
  shows.
* ``adversarial``: the default mask search (500 iterations). iSTFT and
  optimizer work; a single legacy projection, so projector changes should
  not move it.
* ``corpus``: CLI scoring of a synthesized WAV corpus (``eval-set``,
  ``eval-set --permute``, ``compare``, multi-source ``eval``). No STFT;
  legacy projections with interferers and nothing to reuse.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import statistics

import numpy as np

from sepmetrics import audio, cli, experiments, fixtures, metrics

from checks import (
    CSV_REL, FULL_TOL_DB, TABLE_ABS, numbers, parse_csv, parse_table,
    read_float_wav, reference_metrics, require, require_close, same_rows,
)
from spans import patched

SAMPLE_RATE = 16000


class Workload:
    """Inputs, operations and output checks of one workload."""

    name = ""
    expected_calls: dict[str, int] = {}

    def __init__(self, seed: int, workdir: str, expected: dict | None):
        self.seed = seed
        self.workdir = workdir
        self.expected = expected  # stored values; only for the default seed
        self.captured: dict = {}
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, callable]]:
        """``(name, op)`` pairs; ``op(out_dir)`` runs one program call."""
        raise NotImplementedError

    def parse(self, name: str, raw, out_dir: str) -> dict[str, list]:
        """The operation's outputs as parsed tables, keyed by output."""
        raise NotImplementedError

    def capture(self):
        """Context in which the first pass records library internals."""
        return contextlib.nullcontext()

    def verify(self, name: str, parsed: dict[str, list]) -> None:
        """Deep checks on the first pass; raises CheckError."""
        raise NotImplementedError

    def stored(self, name: str, parsed: dict[str, list]) -> list:
        """Values kept for the default seed."""
        raise NotImplementedError

    def tolerance(self, name: str) -> tuple[float, float]:
        """(absolute, relative) tolerance of the operation's text output."""
        return FULL_TOL_DB, CSV_REL

    def check_stored(self, name: str, parsed: dict[str, list], abs_tol: float,
                     rel_tol: float) -> None:
        if self.expected is not None:
            require(name in self.expected, f"no stored values for {self.name}/{name}")
            same_rows(self.stored(name, parsed), self.expected[name],
                      f"{name} vs stored values", abs_tol, rel_tol)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Sweeps(Workload):
    name = "sweeps"
    # (kind, x column, csv file, grid field)
    KINDS = (
        ("rescale-sweep", "mu", "rescale_sweep.csv", "mu_grid"),
        ("progressive-deletion", "proportion", "progressive_deletion.csv", "proportions"),
        ("bandstop-sweep", "gain", "bandstop_sweep.csv", "gains"),
    )
    # 50 + 21 + 41 rows; the one dead estimate skips its legacy projection;
    # 21 + 41 + 1 (band noise) iSTFTs.
    expected_calls = {"experiments.run_to_directory": 3, "metrics.si_sdr": 112,
                      "legacy.fir_project": 111, "linalg.solve_spd": 111, "dsp.istft": 63}

    def setup(self):
        self.specs = {kind: experiments.ExperimentSpec.from_json_dict(
            {"kind": kind, "seed": self.seed}) for kind, *_ in self.KINDS}

    def operations(self):
        return [(kind, functools.partial(self._run, spec)) for kind, spec in self.specs.items()]

    @staticmethod
    def _run(spec, out_dir):
        return experiments.run_to_directory(spec, os.path.join(out_dir, spec.kind))

    def parse(self, name, raw, out_dir):
        csv_name = next(f for kind, _, f, _ in self.KINDS if kind == name)
        return {csv_name: parse_csv(_read(os.path.join(out_dir, name, csv_name)))}

    @contextlib.contextmanager
    def capture(self):
        """Record each runner's rows and every (clean, estimate) pair it scores."""
        rows, pairs = self.captured.setdefault("rows", {}), self.captured.setdefault("pairs", {})
        kind = []

        def recording_runner(fn):
            def run(spec):
                kind.append(spec.kind)
                pairs[spec.kind] = []
                rows[spec.kind] = fn(spec)
                return rows[spec.kind]
            return run

        snr = metrics.snr

        def recording_snr(reference, estimate, *args, **kwargs):
            pairs[kind[-1]].append((reference.samples, estimate.samples))
            return snr(reference, estimate, *args, **kwargs)

        runners = (experiments.run_rescale_sweep, experiments.run_progressive_deletion,
                   experiments.run_bandstop_sweep)
        with patched({**{fn: recording_runner(fn) for fn in runners}, snr: recording_snr}):
            yield

    def verify(self, name, parsed):
        _, x_name, csv_name, grid_field = next(k for k in self.KINDS if k[0] == name)
        rows = self.captured["rows"][name]
        pairs = self.captured["pairs"][name]
        grid = getattr(self.specs[name], grid_field)
        require(len(rows) == len(grid) == len(pairs),
                f"{name}: {len(rows)} rows, {len(pairs)} scored pairs, grid {len(grid)}")
        for i, (row, x, (ref, est)) in enumerate(zip(rows, grid, pairs)):
            what = f"{name} row {i}"
            require(row.x == x, f"{what}: x={row.x!r}, grid {x!r}")
            snr, si_sdr, sd_sdr = reference_metrics(ref, est)
            require_close(row.snr_db, snr, f"{what} snr_db")
            require_close(row.si_sdr_db, si_sdr, f"{what} si_sdr_db")
            require_close(row.sd_sdr_db, sd_sdr, f"{what} sd_sdr_db")
            # the projection subspace contains the optimal gain (delay 0)
            require(row.sdr_legacy_db >= row.si_sdr_db - FULL_TOL_DB,
                    f"{what}: legacy {row.sdr_legacy_db!r} < si-sdr {row.si_sdr_db!r}")
        same_rows(parsed[csv_name], [r.as_dict(x_name) for r in rows], f"{name} csv")
        self.check_stored(name, parsed, FULL_TOL_DB, 0.0)

    def stored(self, name, parsed):
        return [[r.x, r.sdr_legacy_db, r.snr_db, r.si_sdr_db, r.sd_sdr_db]
                for r in self.captured["rows"][name]]


class Adversarial(Workload):
    name = "adversarial"
    FILES = ("trajectory.csv", "mask.csv", "adversarial.csv")
    # one iSTFT per objective evaluation (iterations + 1) plus the final mask
    expected_calls = {"adversary.optimize": 1, "dsp.istft": 502, "legacy.fir_project": 1,
                      "linalg.solve_spd": 1}

    def setup(self):
        self.spec = experiments.ExperimentSpec.from_json_dict(
            {"kind": "adversarial", "seed": self.seed})

    def operations(self):
        return [("adversarial", self._run)]

    def _run(self, out_dir):
        return experiments.run_to_directory(self.spec, os.path.join(out_dir, "adversarial"))

    def parse(self, name, raw, out_dir):
        return {f: parse_csv(_read(os.path.join(out_dir, name, f))) for f in self.FILES}

    @contextlib.contextmanager
    def capture(self):
        run = experiments.run_adversarial

        def recording(spec):
            self.captured["result"], trajectory = run(spec)
            return self.captured["result"], trajectory

        with patched({run: recording}):
            yield

    def verify(self, name, parsed):
        r = self.captured["result"]
        gap = r.final_legacy_sdr_db - r.final_si_sdr_db
        require(r.final_si_sdr_db < 0.0, f"final SI-SDR {r.final_si_sdr_db!r} dB is not < 0")
        require(gap >= 10.0, f"legacy/SI-SDR gap {gap!r} dB is below 10")
        trajectory = np.asarray(r.trajectory)
        require(trajectory.size == self.spec.iterations + 1 and np.all(np.isfinite(trajectory)),
                f"trajectory has {trajectory.size} values, finite={np.all(np.isfinite(trajectory))}")
        require(trajectory[-1] == r.final_si_sdr_db, "final SI-SDR is not the last trajectory value")
        gains = r.mask.gains
        require(gains.min() >= 0.0 and gains.max() == 1.0, "mask gains outside [0, 1] or max != 1")
        same_rows(parsed["trajectory.csv"],
                  [{"iteration": float(i), "si_sdr_db": v} for i, v in enumerate(trajectory)],
                  "trajectory.csv")
        same_rows(parsed["mask.csv"], [{"bin": float(i), "gain": g} for i, g in enumerate(gains)],
                  "mask.csv")
        same_rows(parsed["adversarial.csv"], [{
            "iterations": float(self.spec.iterations), "final_si_sdr_db": r.final_si_sdr_db,
            "final_legacy_sdr_db": r.final_legacy_sdr_db, "gap_db": gap}], "adversarial.csv")
        self.check_stored(name, parsed, FULL_TOL_DB, 0.0)

    def stored(self, name, parsed):
        r = self.captured["result"]
        return [[r.final_si_sdr_db, r.final_legacy_sdr_db,
                 r.final_legacy_sdr_db - r.final_si_sdr_db]]


class Corpus(Workload):
    """CLI scoring of a synthesized corpus; sizes balance scoring, the
    8-source permutation search and legacy projection at about a third each."""

    name = "corpus"
    N_BASES = 4           # 4 s speech-like signals that every file is cut from
    PAIRS = ((1.0, 260), (2.0, 100), (4.0, 40))  # (duration s, count) for eval-set
    N_PERMUTE = 8
    N_COMPARE = 16
    N_EVAL = 3
    TAPS = "512"
    GAP_THRESHOLD_DB = 5.0

    def setup(self):
        rng = np.random.Generator(np.random.PCG64([self.seed, 20181106]))
        bases = [fixtures.speech_like(4.0, SAMPLE_RATE, self.seed * self.N_BASES + b).samples
                 for b in range(self.N_BASES)]

        def cut(seconds, base=None, offset=None):
            n = int(seconds * SAMPLE_RATE)
            base = rng.integers(self.N_BASES) if base is None else base
            offset = rng.integers(0, bases[base].size - n + 1) if offset is None else offset
            return bases[base][offset:offset + n]

        def noisy(x, snr_db, gain):
            noise = rng.standard_normal(x.size)
            noise *= math.sqrt(float(x @ x) / (float(noise @ noise) * 10 ** (snr_db / 10)))
            return gain * (x + noise)

        def save(path, x):
            audio.write_wav(audio.Signal(x, SAMPLE_RATE), path)
            return path

        def folder(*parts):
            path = os.path.join(self.workdir, *parts)
            os.makedirs(path)
            return path

        # eval-set: pair 0 is an exact copy (the +inf path), the rest gain-scaled noisy.
        refs, ests = folder("set", "refs"), folder("set", "ests")
        self.pairs = []
        for seconds, count in self.PAIRS:
            for _ in range(count):
                i = len(self.pairs)
                ref = cut(seconds)
                est = ref if i == 0 else noisy(ref, rng.uniform(-5, 30), 10 ** rng.uniform(-1, 0.5))
                self.pairs.append((save(os.path.join(refs, f"p{i:04d}.wav"), ref),
                                   save(os.path.join(ests, f"p{i:04d}.wav"), est)))
        self.set_dirs = (refs, ests)

        # eval-set --permute: 8 disjoint 2 s sources, estimates in planted order.
        prefs, pests = folder("perm", "refs"), folder("perm", "ests")
        self.planted = [int(k) for k in rng.permutation(self.N_PERMUTE)]
        sources = [cut(2.0, j // 2, (j % 2) * 2 * SAMPLE_RATE) for j in range(self.N_PERMUTE)]
        self.perm_refs = [save(os.path.join(prefs, f"s{j}.wav"), s) for j, s in enumerate(sources)]
        self.perm_ests = [None] * self.N_PERMUTE
        for j, s in enumerate(sources):
            path = os.path.join(pests, f"s{self.planted[j]}.wav")
            self.perm_ests[self.planted[j]] = save(path, noisy(s, rng.uniform(8, 20), rng.uniform(0.5, 1.5)))
        self.perm_dirs = (prefs, pests)

        # compare: one reference, half noisy copies, half short-FIR-filtered ones
        # that the legacy SDR forgives (flagged WARN).
        cdir = folder("compare")
        ref = cut(2.0)
        self.compare_ref = save(os.path.join(cdir, "ref.wav"), ref)
        self.compare_ests = []
        for k in range(self.N_COMPARE):
            if k % 2:
                h = rng.standard_normal(32) * np.exp(-np.arange(32) / 6.0)
                est = noisy(np.convolve(ref, h)[:ref.size], 25.0, 1.0)
            else:
                est = noisy(ref, rng.uniform(0, 25), rng.uniform(0.5, 1.5))
            self.compare_ests.append(save(os.path.join(cdir, f"est{k:02d}.wav"), est))

        # eval with two interferers: distinct bases per call, nothing shared.
        edir = folder("eval")
        self.evals = []
        for k in range(self.N_EVAL):
            ref, a, b = (cut(2.0, base) for base in rng.permutation(self.N_BASES)[:3])
            est = noisy(ref + rng.uniform(0.05, 0.5) * a + rng.uniform(0.05, 0.5) * b,
                        20.0, rng.uniform(0.5, 1.5))
            self.evals.append(tuple(save(os.path.join(edir, f"{k}{role}.wav"), x)
                                    for role, x in zip("rabe", (ref, a, b, est))))

        n_pairs = len(self.pairs)
        self.expected_calls = {
            "cli.main": 3 + self.N_EVAL,
            "audio.read_wav": 2 * n_pairs + 2 * self.N_PERMUTE + 1 + self.N_COMPARE
                              + 4 * self.N_EVAL,
            "metrics.evaluate": n_pairs + self.N_PERMUTE + self.N_COMPARE + self.N_EVAL,
            # the permutation search scores all k*k pairs through metrics._METRICS
            "metrics.si_sdr": n_pairs + self.N_PERMUTE ** 2 + self.N_PERMUTE + self.N_COMPARE
                              + self.N_EVAL,
            "metrics.evaluate_permuted": 1,
            "metrics.decompose": self.N_EVAL,
            "legacy.fir_project": self.N_COMPARE + self.N_EVAL,
            "linalg.solve_spd": self.N_COMPARE + 2 * self.N_EVAL,
        }

    def _argv(self):
        yield "eval-set", ["eval-set", "--refs", self.set_dirs[0], "--ests", self.set_dirs[1]]
        yield "permute", ["eval-set", "--refs", self.perm_dirs[0], "--ests", self.perm_dirs[1],
                          "--permute"]
        compare = ["compare", "--ref", self.compare_ref, "--legacy-taps", self.TAPS]
        for path in self.compare_ests:
            compare += ["--est", path]
        yield "compare", compare
        for k, (ref, a, b, est) in enumerate(self.evals):
            yield f"eval-{k}", ["eval", "--ref", ref, "--est", est, "--interf", a,
                                "--interf", b, "--legacy-taps", self.TAPS]

    def operations(self):
        return [(name, functools.partial(self._cli, argv)) for name, argv in self._argv()]

    @staticmethod
    def _cli(argv, out_dir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def parse(self, name, raw, out_dir):
        code, out, err = raw
        require(code == 0, f"exit code {code}: {err.strip()}")
        if name == "compare":
            return {"stdout": parse_table(out)}
        return {"stdout": parse_csv(out), "stderr": [[line] for line in err.splitlines()]}

    def tolerance(self, name):
        return (TABLE_ABS, 0.0) if name == "compare" else (FULL_TOL_DB, CSV_REL)

    def _metrics_row(self, row, ref_path, est_path, what):
        """Compare a CSV row's SNR/SI-SDR/SD-SDR with a recomputation."""
        snr, si_sdr, sd_sdr = reference_metrics(read_float_wav(ref_path),
                                                read_float_wav(est_path))
        for key, want in (("snr_db", snr), ("si_sdr_db", si_sdr), ("sd_sdr_db", sd_sdr),
                          ("min_snr_sdsdr_db", min(snr, sd_sdr))):
            require_close(row[key], want, f"{what} {key}", FULL_TOL_DB, CSV_REL)
        return snr, si_sdr, sd_sdr

    def _verify_set(self, name, rows, refs, ests, assignment):
        k = len(refs)
        require(len(rows) == k + 2, f"{name}: {len(rows)} rows, expected {k + 2}")
        scores = []
        for j, row in enumerate(rows[:k]):
            est = ests[assignment[j]]
            require(row["ref"] == refs[j] and row["est"] == est and row["est_index"] == assignment[j],
                    f"{name} row {j}: pairs {row['ref']} with {row['est']}")
            scores.append(self._metrics_row(row, refs[j], est, f"{name} row {j}"))
        for summary, reducer in zip(rows[k:], (statistics.fmean, statistics.median)):
            for col, values in zip(("snr_db", "si_sdr_db", "sd_sdr_db"), zip(*scores)):
                finite = [v for v in values if math.isfinite(v)]
                require_close(summary[col], reducer(finite) if finite else math.nan,
                              f"{name} {summary['row']} {col}", FULL_TOL_DB, CSV_REL)

    def verify(self, name, parsed):
        rows = parsed["stdout"]
        if name == "eval-set":
            refs, ests = (sorted(p[i] for p in self.pairs) for i in (0, 1))
            self._verify_set(name, rows, refs, ests, range(len(refs)))
            require(all(math.isinf(v) and v > 0 for v in
                        (rows[0][c] for c in ("snr_db", "si_sdr_db", "sd_sdr_db"))),
                    "exact copy does not score +inf")
        elif name == "permute":
            self._verify_set(name, rows, self.perm_refs, self.perm_ests, self.planted)
            want = "permutation: " + ",".join(map(str, self.planted))
            require(parsed["stderr"] == [[want]], f"permutation line {parsed['stderr']}")
        elif name == "compare":
            require(len(rows) == self.N_COMPARE, f"compare: {len(rows)} rows")
            for path, row in zip(self.compare_ests, rows):
                what = f"compare {os.path.basename(path)}"
                require(row[0] == os.path.basename(path), f"{what}: row names {row[0]}")
                snr, si_sdr, sd_sdr, legacy, gap, flag = row[1:]
                for got, want, key in zip((snr, si_sdr, sd_sdr),
                                          reference_metrics(read_float_wav(self.compare_ref),
                                                            read_float_wav(path)),
                                          ("snr", "si_sdr", "sd_sdr")):
                    require_close(got, want, f"{what} {key}", TABLE_ABS)
                require(legacy >= si_sdr - TABLE_ABS, f"{what}: legacy {legacy} < si-sdr {si_sdr}")
                require_close(gap, legacy - si_sdr, f"{what} gap", 2 * TABLE_ABS)
                if abs(gap - self.GAP_THRESHOLD_DB) > TABLE_ABS:
                    require(flag == ("WARN" if gap > self.GAP_THRESHOLD_DB else "ok"),
                            f"{what}: flag {flag} for gap {gap}")
        else:
            ref, _, _, est = self.evals[int(name.split("-")[1])]
            require(len(rows) == 1, f"{name}: {len(rows)} rows")
            row = rows[0]
            self._metrics_row(row, ref, est, name)
            # 10^(-SDR/10) = 10^(-SIR/10) + 10^(-SAR/10)
            lhs = 10 ** (-row["si_sdr_db"] / 10)
            rhs = 10 ** (-row["si_sir_db"] / 10) + 10 ** (-row["si_sar_db"] / 10)
            require(math.isclose(lhs, rhs, rel_tol=1e-6), f"{name}: energy identity {lhs} != {rhs}")
        self.check_stored(name, parsed, *self.tolerance(name))

    def stored(self, name, parsed):
        return numbers(parsed["stdout"])


WORKLOADS = {w.name: w for w in (Sweeps, Adversarial, Corpus)}
