"""Command-line front end.

Subcommands:
  eval        metrics for one reference/estimate pair (CSV to stdout or file)
  eval-set    metrics for matched file sets, optionally permutation-matched
  experiment  run a JSON-described experiment and write its CSV artifacts
  compare     flag estimates whose legacy SDR overstates quality vs SI-SDR

Exit codes, by the category base of the error (see :mod:`sepmetrics.errors`):
0 success; 2 an ``InputError`` (unreadable or malformed input, an ``--out``
directory that does not exist, checked before any WAV is read); 3 a
``PreconditionError`` (mismatched or zero signals, energies beyond the float64
range, a legacy projection above its taps*sources cap); 1 anything else.
``eval-set`` reads, scores and drops one pair at a time, and ``--truncate``
truncates each pair on its own, as ``eval --truncate`` does; with
``--permute`` every reference meets every estimate, so all files are held and
the whole set is cut to its shortest file.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import math
import os
import statistics
import sys

from . import errors, legacy, metrics
from .audio import read_wav, rows_to_csv, write_csv
from .experiments import ExperimentSpec, run_to_directory

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_log = logging.getLogger(__name__)

GAP_THRESHOLD_DB = 5.0


def _tap_count(text: str) -> int:
    """``--legacy-taps`` value: an integer >= 1 (else argparse exits 2)."""
    try:
        taps = int(text)
    except ValueError:
        taps = 0
    if taps < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return taps


def _threshold(text: str) -> float:
    """``--threshold`` value: a number, not NaN (no gap compares above NaN)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepmetrics",
        description="Scale-aware separation metrics and legacy-SDR comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one reference/estimate pair")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("--ref", required=True, help="reference WAV")
    p_eval.add_argument("--est", required=True, help="estimate WAV")
    p_eval.add_argument("--interf", action="append", default=[],
                        help="interferer WAV (repeatable; enables SIR/SAR)")
    p_eval.add_argument("--zero-mean", action="store_true",
                        help="subtract each signal's mean first")
    p_eval.add_argument("--truncate", action="store_true",
                        help="truncate unequal lengths to the shortest signal")
    p_eval.add_argument("--legacy-taps", type=_tap_count, default=None, metavar="N",
                        help="also report FIR-projection SDR/SIR/SAR with N taps")
    p_eval.add_argument("--channel", type=int, default=None,
                        help="channel to read from multichannel files")
    p_eval.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_set = sub.add_parser("eval-set", help="evaluate matched sets of files")
    p_set.set_defaults(run=_cmd_eval_set)
    p_set.add_argument("--refs", required=True, help="directory or glob of reference WAVs")
    p_set.add_argument("--ests", required=True, help="directory or glob of estimate WAVs")
    p_set.add_argument("--permute", action="store_true",
                       help="search all assignments for the best metric mean")
    p_set.add_argument("--metric", default="si-sdr",
                       choices=["si-sdr", "snr", "sd-sdr"],
                       help="metric --permute maximizes (summaries cover every column)")
    p_set.add_argument("--zero-mean", action="store_true")
    p_set.add_argument("--truncate", action="store_true")
    p_set.add_argument("--channel", type=int, default=None)
    p_set.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_exp = sub.add_parser("experiment", help="run a JSON-described experiment")
    p_exp.set_defaults(run=_cmd_experiment)
    p_exp.add_argument("--spec", required=True, help="experiment JSON file")
    p_exp.add_argument("--out-dir", required=True, help="directory for CSV outputs")

    p_cmp = sub.add_parser("compare", help="flag legacy-SDR/SI-SDR gaps")
    p_cmp.set_defaults(run=_cmd_compare)
    p_cmp.add_argument("--ref", required=True, help="reference WAV")
    p_cmp.add_argument("--est", required=True, action="append",
                       help="estimate WAV (repeatable)")
    p_cmp.add_argument("--legacy-taps", type=_tap_count,
                       default=legacy.FirProjectionConfig.taps, metavar="N")
    p_cmp.add_argument("--threshold", type=_threshold, default=GAP_THRESHOLD_DB,
                       help="gap (dB) beyond which an estimate is flagged")
    p_cmp.add_argument("--channel", type=int, default=None)
    return parser


def _emit(rows: list[dict], out: str | None) -> None:
    """CSV to stdout, or to the file ``out`` (``IoError`` if it cannot be written)."""
    if out is None:
        sys.stdout.write(rows_to_csv(rows))
    else:
        write_csv(rows, out)


def _legacy_columns(ref, est, interferers, taps: int) -> dict[str, float]:
    decomp = legacy.fir_project(est, ref, interferers,
                                legacy.FirProjectionConfig(taps=taps))
    return {
        "legacy_sdr_db": legacy.legacy_sdr(decomp),
        "legacy_sir_db": legacy.legacy_sir(decomp),
        "legacy_sar_db": legacy.legacy_sar(decomp),
    }


def _cmd_eval(args) -> int:
    ref = read_wav(args.ref, args.channel)
    est = read_wav(args.est, args.channel)
    interferers = [read_wav(p, args.channel) for p in args.interf]
    sigs = metrics.prepare([ref, est, *interferers],
                           truncate=args.truncate, zero_mean=args.zero_mean)
    row = metrics.evaluate(sigs[0], sigs[1], sigs[2:]).as_dict()
    if args.legacy_taps is not None:
        row.update(_legacy_columns(sigs[0], sigs[1], sigs[2:], args.legacy_taps))
    _emit([row], args.out)
    return EXIT_OK


def _expand(pattern: str) -> list[str]:
    if os.path.isdir(pattern):
        names = [os.path.join(pattern, n) for n in os.listdir(pattern)
                 if n.lower().endswith(".wav")]
    elif glob.has_magic(pattern):
        names = glob.glob(pattern)
    else:
        names = [pattern]
    return sorted(names)


def _finite_summary(rows: list[dict], columns: list[str], reducer, label: str) -> dict:
    summary: dict = {"row": label, "index": "", "ref": "", "est": "", "est_index": ""}
    for col in columns:
        if {r[col] for r in rows} in ({math.inf}, {-math.inf}):
            summary[col] = rows[0][col]  # one infinity throughout, as for exact copies
            continue
        values = [r[col] for r in rows if math.isfinite(r[col])]
        _log.debug("eval-set %s of %s: dropped %d of %d non-finite rows",
                   label, col, len(rows) - len(values), len(rows))
        summary[col] = reducer(values) if values else math.nan
    return summary


def _cmd_eval_set(args) -> int:
    ref_paths = _expand(args.refs)
    est_paths = _expand(args.ests)
    if len(ref_paths) != len(est_paths):
        raise errors.CountMismatchError(
            f"{len(ref_paths)} reference files vs {len(est_paths)} estimate files"
        )
    if not ref_paths:
        raise errors.CountMismatchError("no input files matched")
    prep = {"truncate": args.truncate, "zero_mean": args.zero_mean}
    if args.permute:
        # Every reference meets every estimate, so all k sources are held.
        sigs = metrics.prepare([read_wav(p, args.channel) for p in ref_paths + est_paths],
                               **prep)
        assignment, reports = metrics.evaluate_permuted(
            sigs[:len(ref_paths)], sigs[len(ref_paths):], args.metric)
    else:
        # One pair at a time: read, scored and dropped before the next is read.
        assignment = tuple(range(len(ref_paths)))
        reports = [metrics.evaluate(read_wav(r, args.channel), read_wav(e, args.channel), **prep)
                   for r, e in zip(ref_paths, est_paths)]

    rows = [{"row": "pair", "index": j, "ref": ref_paths[j], "est": est_paths[assignment[j]],
             "est_index": assignment[j], **report.as_dict()}
            for j, report in enumerate(reports)]
    metric_cols = list(reports[0].as_dict())
    _emit(rows + [_finite_summary(rows, metric_cols, statistics.fmean, "mean"),
                  _finite_summary(rows, metric_cols, statistics.median, "median")], args.out)
    print("permutation: " + ",".join(str(i) for i in assignment), file=sys.stderr)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise errors.IoError(f"cannot read {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise errors.SpecValidationError("$", f"not valid JSON: {exc}") from exc
    spec = ExperimentSpec.from_json_dict(data)
    summary = run_to_directory(spec, args.out_dir)
    parts = [f"kind={spec.kind}"]
    parts += [f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
              for k, v in summary.items()]
    print(" ".join(parts))
    return EXIT_OK


def gap_db(legacy_sdr_db: float, si_sdr_db: float) -> float:
    """Legacy-SDR overstatement. Equal infinities (both +inf or both -inf) count as no gap."""
    if math.isinf(legacy_sdr_db) and legacy_sdr_db == si_sdr_db:
        return 0.0
    return legacy_sdr_db - si_sdr_db


def _cmd_compare(args) -> int:
    ref = read_wav(args.ref, args.channel)
    cfg = legacy.FirProjectionConfig(args.legacy_taps)  # one plan of ref for every estimate
    header = f"{'estimate':<40} {'snr_db':>10} {'si_sdr_db':>10} {'sd_sdr_db':>10} {'legacy_db':>10} {'gap_db':>10}  flag"
    lines = [header]
    for path in args.est:
        est = read_wav(path, args.channel)
        report = metrics.evaluate(ref, est)
        decomp = legacy.fir_project(est, ref, cfg=cfg)
        lg = legacy.legacy_sdr(decomp)
        gap = gap_db(lg, report.si_sdr_db)
        flag = "WARN" if gap > args.threshold else "ok"
        name = os.path.basename(path)[:40]
        lines.append(
            f"{name:<40} {report.snr_db:>10.3f} {report.si_sdr_db:>10.3f} "
            f"{report.sd_sdr_db:>10.3f} {lg:>10.3f} {gap:>10.3f}  {flag}"
        )
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise errors.IoError(f"cannot write {args.out}: its directory does not exist")
        return args.run(args)
    except errors.SepMetricsError as exc:  # uncategorised package errors are unexpected
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, errors.InputError):
            return EXIT_INPUT
        return EXIT_PRECONDITION if isinstance(exc, errors.PreconditionError) else EXIT_UNEXPECTED
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
