"""Output checks that do not trust the library.

Metric values are recomputed here with plain numpy from the definitions, and
program outputs are parsed from the text the program wrote. Every failed
check raises :class:`CheckError`, which the runner counts as a failed
operation.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Full-precision values may differ from the stored ones by this much (dB).
FULL_TOL_DB = 1e-9
# CSV cells carry 9 significant digits: one unit in the last digit, relative.
CSV_REL = 1e-8
# The compare table prints 3 decimals: one unit in the last digit.
TABLE_ABS = 1e-3


class CheckError(AssertionError):
    """A program output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_float_wav(path: str) -> np.ndarray:
    """Samples of a mono 32-bit float WAV, read without the library."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 12
    while pos + 8 <= len(data):
        size = int.from_bytes(data[pos + 4:pos + 8], "little")
        if data[pos:pos + 4] == b"data":
            return np.frombuffer(data, "<f4", size // 4, pos + 8).astype(np.float64)
        pos += 8 + size + (size & 1)
    raise CheckError(f"{path}: no data chunk")


def db(num: float, den: float) -> float:
    if num == 0.0:
        return -math.inf
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def reference_metrics(ref: np.ndarray, est: np.ndarray) -> tuple[float, float, float]:
    """SNR, SI-SDR and SD-SDR in dB straight from their definitions."""
    energy = float(np.dot(ref, ref))
    raw = ref - est
    raw_energy = float(np.dot(raw, raw))
    alpha = float(np.dot(est, ref)) / energy
    target = alpha * alpha * energy
    scaled = alpha * ref - est
    snr = db(energy, raw_energy)
    si_sdr = db(target, float(np.dot(scaled, scaled)))
    sd_sdr = db(target, raw_energy)
    return snr, si_sdr, sd_sdr


def close(got: float, want: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    """Equal within tolerance; infinities must match exactly, NaN only NaN."""
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def require_close(got: float, want: float, what: str,
                  abs_tol: float = FULL_TOL_DB, rel_tol: float = 0.0) -> None:
    require(close(got, want, abs_tol, rel_tol), f"{what}: got {got!r}, expected {want!r}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[dict]:
    """CSV text to rows of ``{column: float or str}``."""
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def parse_table(text: str) -> list[list]:
    """Whitespace-separated table (``compare`` output) without its header."""
    return [[_cell(v) for v in line.split()] for line in text.strip().splitlines()[1:]]


def same_rows(got: list, want: list, what: str,
              abs_tol: float = FULL_TOL_DB, rel_tol: float = CSV_REL) -> None:
    """Two parsed tables agree: strings exactly, numbers within tolerance."""
    require(len(got) == len(want), f"{what}: {len(got)} rows, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        g_items = list(g.items()) if isinstance(g, dict) else list(enumerate(g))
        w_items = list(w.items()) if isinstance(w, dict) else list(enumerate(w))
        require([k for k, _ in g_items] == [k for k, _ in w_items],
                f"{what} row {i}: columns {[k for k, _ in g_items]}")
        for (key, gv), (_, wv) in zip(g_items, w_items):
            if isinstance(wv, str) or isinstance(gv, str):
                require(gv == wv, f"{what} row {i} {key}: {gv!r} != {wv!r}")
            else:
                require_close(gv, wv, f"{what} row {i} {key}", abs_tol, rel_tol)


def numbers(rows: list) -> list:
    """Only the numeric cells of parsed rows, for storing as expected values."""
    out = []
    for row in rows:
        cells = row.values() if isinstance(row, dict) else row
        out.append([c for c in cells if not isinstance(c, str)])
    return out
