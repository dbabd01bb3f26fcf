"""sepmetrics benchmark: end-to-end timings, output checks and traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {sweeps,adversarial,corpus} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout. BLAS is pinned to one
thread before numpy loads, because BLAS threading alone moves the sweeps by 2x
or more on a 2-core machine; ``SEPMETRICS_THREADS`` is left unset.

A run sets up the workload's inputs from ``--seed``, makes one untimed
warm-up pass whose outputs are checked in depth (first passes in a fresh
process run up to 2x slower), then repeats passes for ``--seconds`` and checks
each against the warm-up pass.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (median wall time of
one warm pass), ``setup_s`` (median over this process and three fresh
processes of the time from before ``import sepmetrics`` to inputs ready) and
``peak_rss_mb``. Both times are scaled to a nominal machine speed with a fixed
numpy kernel timed in the same process (``speed.py``), because neighbours on a
shared machine slow everything by up to 1.8x for minutes at a time. ``--trace 1`` alternates traced and untraced passes and
reports per-layer metrics; see ``spans.py``. The last line of stdout is the
JSON result; the line before it is a record with the environment, per-pass
samples and quartiles, failures and the full layer table.

``--write-expected`` stores the default seed's output values in
``expected_seed0.json``; later runs with seed 0 must reproduce them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Nothing here may import numpy: set-up time starts before it loads.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected_seed0.json")
DEFAULT_SEED = 0
SETUP_PROBES = 3
CALIBRATIONS = 5
MIN_PASSES = 3

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-layer metrics reported with --trace 1 (BENCHMARK.json lists the same).
SPANNED = (
    "legacy.fir_project", "linalg.solve_spd", "linalg.cho_factor", "dsp.stft", "dsp.istft",
    "adversary.optimize", "metrics.evaluate_permuted", "metrics.evaluate", "metrics.si_sdr",
    "metrics.decompose", "audio.read_wav", "audio.write_csv", "audio.rows_to_csv",
    "experiments.run_to_directory", "cli.main", "fixtures.speech_like",
)
# Input generation, traced once before the passes.
SETUP_SPANNED = ("fixtures.speech_like", "audio.write_wav")
COMPUTED = (
    "linalg.factorizations", "linalg.jitter_retries", "linalg.cholesky_flops",
    "legacy.gram_bytes", "legacy.ref_reuse_share", "metrics.permutations_scored",
    "dsp.frames", "adversary.iterations", "audio.bytes_read",
)
UNITS = {"peak_rss_mb": "MB", "linalg.cholesky_flops": "flop",
         "legacy.gram_bytes": "B", "audio.bytes_read": "B", "legacy.ref_reuse_share": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweeps", "adversarial", "corpus"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true",
                   help="store this run's output values as the default seed's")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_expected and args.seed != DEFAULT_SEED:
        p.error(f"--write-expected needs --seed {DEFAULT_SEED}")
    return args


def import_library():
    """Import sepmetrics from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sepmetrics", "__init__.py")):
        raise SystemExit(f"error: no sepmetrics sources under {SRC}")
    sys.path.insert(0, SRC)
    import sepmetrics

    if os.path.dirname(os.path.dirname(os.path.abspath(sepmetrics.__file__))) != SRC:
        raise SystemExit(f"error: sepmetrics imported from {sepmetrics.__file__}")
    return sepmetrics


def summary(values):
    return {"samples": values, "quartiles": statistics.quantiles(values, n=4)}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(PIN["OPENBLAS_NUM_THREADS"]), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "commit": commit, "src_lines": src_lines,
    }


class Run:
    """One workload's passes, with failures counted per program operation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict | None = None

    def one_pass(self, out_dir, tracer=None):
        """Run every operation once; returns (wall seconds, parsed outputs)."""
        from checks import CheckError, same_rows

        os.makedirs(out_dir)
        raw = {}
        ops = self.workload.operations()
        context = tracer.installed() if tracer else contextlib.nullcontext()
        with context:
            start = time.perf_counter()
            for name, op in ops:
                try:
                    raw[name] = op(out_dir)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    raw[name] = exc
            wall = time.perf_counter() - start
        parsed = {}
        for name, _ in ops:
            self.attempted += 1
            try:
                if isinstance(raw[name], Exception):
                    raise raw[name]
                parsed[name] = self.workload.parse(name, raw[name], out_dir)
                if self.first is None:
                    self.workload.verify(name, parsed[name])
                else:
                    if name not in self.first:
                        raise CheckError("the warm-up pass of this operation failed")
                    abs_tol, rel_tol = self.workload.tolerance(name)
                    for key, rows in parsed[name].items():
                        same_rows(rows, self.first[name][key], f"{name}/{key}", abs_tol, rel_tol)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                parsed.pop(name, None)
        shutil.rmtree(out_dir)
        return wall, parsed

    def warm_up(self, out_dir):
        with self.workload.capture():
            _, parsed = self.one_pass(out_dir)
        self.first = parsed


def setup_probe(args):
    """Child process: time import plus input generation, print it."""
    start = time.perf_counter()
    import_library()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        WORKLOADS[args.workload](args.seed, workdir, None)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir)
    from speed import Kernel

    print(json.dumps({"setup_s": elapsed, "kernel_s": Kernel().median(CALIBRATIONS)}))


def probe_setups(args):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def layer_metrics(setup_tracer, tracers, walls_traced, walls_plain):
    """Medians of span times over traced passes; counts must not vary."""
    first = tracers[0]
    out = {}
    for name in SPANNED:
        calls = {t.calls.get(name, 0) for t in tracers}
        if len(calls) != 1:
            raise RuntimeError(f"{name}.calls differ between traced passes: {sorted(calls)}")
        out[f"{name}.calls"] = calls.pop()
        out[f"{name}.busy_s"] = statistics.median([t.busy.get(name, 0.0) for t in tracers])
        out[f"{name}.self_s"] = statistics.median([t.self_s.get(name, 0.0) for t in tracers])
    for t in tracers[1:]:
        if t.computed() != first.computed():
            raise RuntimeError(f"computed counts differ between traced passes: "
                               f"{first.computed()} vs {t.computed()}")
    out.update({k: first.computed()[k] for k in COMPUTED})
    traced, plain = statistics.median(walls_traced), statistics.median(walls_plain)
    out["trace.pass_s"] = traced
    out["trace.overhead_s"] = traced - plain
    out["trace.hooks_s"] = statistics.median([t.busy.get("trace.hooks", 0.0) for t in tracers])
    for name in SETUP_SPANNED:
        out[f"setup.{name}.busy_s"] = setup_tracer.busy.get(name, 0.0)
    return out


def unit(name):
    if name.endswith("_s"):
        return "s"
    return UNITS.get(name, UNITS.get(name.rsplit(".", 1)[-1], "count"))


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PIN)
    os.environ.pop("SEPMETRICS_THREADS", None)
    if args.setup_only:
        setup_probe(args)
        return 0

    start = time.perf_counter()
    import_library()
    sys.path.insert(0, HERE)
    from spans import Tracer
    from speed import NOMINAL_S, Kernel
    from workloads import WORKLOADS

    expected = None
    if args.seed == DEFAULT_SEED and not args.write_expected:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        setup_tracer = Tracer() if args.trace else None
        with setup_tracer.installed() if setup_tracer else contextlib.nullcontext():
            workload = WORKLOADS[args.workload](args.seed, os.path.join(workdir, "inputs"),
                                                expected)
        setup_s = time.perf_counter() - start
        run = Run(workload)
        run.warm_up(os.path.join(workdir, "warm"))
        if args.write_expected:
            return write_expected(args, workload, run)

        walls, traced_walls, tracers, kernel_s = [], [], [], []
        kernel = None if args.trace else Kernel()
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < MIN_PASSES * (1 + args.trace) or time.perf_counter() < deadline:
            out_dir = os.path.join(workdir, f"pass{i}")
            if args.trace and i % 2 == 0:
                tracer = Tracer()
                wall, _ = run.one_pass(out_dir, tracer)
                tracer.check_additive(wall)
                tracer.check_calls(workload.expected_calls)
                tracers.append(tracer)
                traced_walls.append(wall)
            else:
                if kernel:
                    kernel_s.append(kernel.run())
                wall, _ = run.one_pass(out_dir)
                walls.append(wall)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "pass_wall_s": summary(walls),
              "attempted": run.attempted, "failed": len(run.failures),
              "error_rate": len(run.failures) / run.attempted,
              "failures": run.failures[:20]}
    if args.trace:
        metrics = layer_metrics(setup_tracer, tracers, traced_walls, walls)
        record["traced_pass_s"] = summary(traced_walls)
        record["layers"] = {
            name: {"calls": tracers[0].calls[name], "busy_s": tracers[0].busy[name],
                   "self_s": tracers[0].self_s[name]} for name in sorted(tracers[0].calls)}
    else:
        # Times are scaled to nominal machine speed (see speed.py); the record
        # keeps the wall times and the kernel times they were scaled by.
        kernel_median = statistics.median(kernel_s)
        probes = [{"setup_s": setup_s, "kernel_s": kernel_median}] + probe_setups(args)
        record["kernel_s"] = summary(kernel_s)
        record["setup_wall_s"] = [p["setup_s"] for p in probes]
        record["setup_kernel_s"] = [p["kernel_s"] for p in probes]
        setups = [p["setup_s"] * NOMINAL_S / p["kernel_s"] for p in probes]
        record["setup_s"] = summary(setups)
        metrics = {
            "pass_s": statistics.median(walls) * NOMINAL_S / kernel_median,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(f"{'error_rate':<14} {record['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for name, value in metrics.items():
        print(f"{name:<14} {value:.6g} {unit(name)}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def write_expected(args, workload, run):
    if run.failures:
        raise SystemExit("error: warm-up pass failed, nothing stored:\n" + "\n".join(run.failures))
    stored = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            stored = json.load(fh)
    stored[args.workload] = {name: workload.stored(name, parsed)
                             for name, parsed in run.first.items()}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"stored {len(stored[args.workload])} outputs of {args.workload} in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
