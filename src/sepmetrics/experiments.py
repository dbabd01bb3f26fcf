"""Scripted experiment harnesses producing CSV curves.

Four experiment kinds, all deterministic given their spec (and input file):

* ``rescale-sweep``: rescale the mixture of two equal-power orthogonal noise
  signals and trace how each metric reacts to pure gain changes, alongside
  the closed-form scale-dependent SDR curve
  ``10*log10(mu^2 / ((1-mu)^2 + mu^2))``.
* ``progressive-deletion``: add white noise to a speech signal and delete a
  growing proportion of STFT bins (a shrinking bandpass around the
  median-energy bin); the scale-aware metrics fall monotonically while the
  legacy FIR-projection SDR stays high.
* ``bandstop-sweep``: corrupt speech with bandpass noise at 0 dB in-band SNR
  and sweep the stop gain of the matching bandstop mask; SNR and SI-SDR peak
  near the single-gain optimum of 0.5, the legacy SDR keeps rewarding
  deletion.
* ``adversarial``: run the mask optimizer and dump its trajectory and mask.

Specs can be read from a JSON file; see ``ExperimentSpec.from_json_dict``
for the schema.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import adversary, dsp, legacy, metrics
from .audio import Signal, read_wav, write_csv
from .errors import ConfigError, IoError, SpecValidationError, ZeroEstimateError, _check_number
from .fixtures import speech_like
from .linalg import _inner

__all__ = [
    "ExperimentSpec",
    "CurveRow",
    "run_rescale_sweep",
    "run_progressive_deletion",
    "run_bandstop_sweep",
    "run_adversarial",
    "run_to_directory",
    "KINDS",
]

KINDS = ("rescale-sweep", "progressive-deletion", "bandstop-sweep", "adversarial")

# progressive-deletion: SNR of the white noise added to the speech
NOISE_SNR_DB = 15.0
# bandstop-sweep: width of the noise-corrupted band
BAND_WIDTH_HZ = 1600.0


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run.

    Construction validates every field, with the same checks whether the
    spec comes from Python or from :meth:`from_json_dict`: the integer fields
    (``seed``, ``sample_rate_hz``, ``legacy_taps``, ``length``,
    ``iterations``) must be integers, every other number finite. ``stft``,
    ``legacy_taps`` and ``iterations`` are checked, for every kind, by
    ``AdversaryConfig``'s rules under the same field names. Grids are
    stored as tuples of floats; ``mu = 0`` writes ``-inf`` cells, the
    closed-form one included.
    """

    kind: str
    input_path: str | None = None
    seed: int = 0
    stft: dsp.StftConfig = field(default_factory=dsp.StftConfig)
    sample_rate_hz: int = 16000
    duration_s: float = 2.0
    legacy_taps: int = legacy.FirProjectionConfig.taps
    # progressive-deletion
    proportions: tuple[float, ...] = tuple(round(0.05 * i, 10) for i in range(21))
    # bandstop-sweep
    gains: tuple[float, ...] = tuple(round(0.025 * i, 10) for i in range(41))
    # rescale-sweep
    mu_grid: tuple[float, ...] = tuple(round(0.1 * i, 10) for i in range(1, 51))
    length: int = 16000
    # adversarial
    iterations: int = adversary.AdversaryConfig.iterations

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecValidationError("kind", f"must be one of {KINDS}, got {self.kind!r}")
        if self.input_path is not None and not isinstance(self.input_path, (str, os.PathLike)):
            # open() would take an integer as a file descriptor
            raise SpecValidationError("input", f"must be a path or None, got {self.input_path!r}")
        try:
            adversary.AdversaryConfig(self.iterations, self.stft, self.legacy_taps)
        except ConfigError as exc:
            raise SpecValidationError(exc.field, exc.reason) from exc
        for name in self._INT_FIELDS + ("duration_s",):
            _check_number(name, getattr(self, name), integer=name in self._INT_FIELDS,
                          error=SpecValidationError)
        for name, lo, hi in (("proportions", 0.0, 1.0), ("gains", 0.0, 1.0),
                             ("mu_grid", None, None)):
            for value in getattr(self, name):
                _check_number(name, value, error=SpecValidationError)
            grid = tuple(map(float, getattr(self, name)))
            object.__setattr__(self, name, grid)  # frozen: store the normalized grid
            if len(grid) == 0:
                raise SpecValidationError(name, "grid must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise SpecValidationError(name, "grid must be strictly increasing")
            if lo is not None and (grid[0] < lo or grid[-1] > hi):
                raise SpecValidationError(name, f"values must lie in [{lo}, {hi}]")
        for name, ok in (
            ("seed", self.seed >= 0),
            ("sample_rate_hz", self.sample_rate_hz >= 1),
            ("duration_s", self.duration_s > 0),
            ("length", self.length >= 1),
        ):
            if not ok:
                raise SpecValidationError(name, f"invalid value {getattr(self, name)!r}")

    _GRID_FIELDS = ("proportions", "gains", "mu_grid")
    _INT_FIELDS = ("seed", "sample_rate_hz", "length")
    _COMMON_KEYS = ("kind", "input", "seed", "stft", "sample_rate_hz", "duration_s",
                    "legacy_taps")
    _KIND_KEYS = {
        "rescale-sweep": ("mu_grid", "length"),
        "progressive-deletion": ("proportions",),
        "bandstop-sweep": ("gains",),
        "adversarial": ("iterations",),
    }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from a parsed JSON object, validating field by field.

        Schema: ``kind`` (required), plus optional ``input`` (WAV path),
        ``seed``, ``stft: {window_len, hop}``, ``sample_rate_hz``,
        ``duration_s``, ``legacy_taps``, and the kind-specific parameters
        (``mu_grid``/``length``, ``proportions``, ``gains``, or ``iterations``).
        Any other key, such as ``noise_snr_db`` (fixed at :data:`NOISE_SNR_DB`),
        is refused as an unknown field.
        ``seed``, ``sample_rate_hz``, ``legacy_taps``, ``length``,
        ``iterations`` and the ``stft`` fields must be JSON integers (not
        ``true``/``false`` or ``2.0``); every number must be finite, since
        Python's ``json`` reads ``NaN`` and ``Infinity``. Those checks are
        the constructors' own; here they are reported under the JSON field.
        """
        if not isinstance(data, dict):
            raise SpecValidationError("$", "experiment spec must be a JSON object")
        kind = data.get("kind")
        if kind not in KINDS:
            raise SpecValidationError("kind", f"must be one of {KINDS}, got {kind!r}")
        allowed = set(cls._COMMON_KEYS) | set(cls._KIND_KEYS[kind])
        kwargs: dict = {"kind": kind}
        for key, value in data.items():
            if key == "kind":
                continue
            if key not in allowed:
                raise SpecValidationError(key, f"unknown field for kind {kind!r}")
            if key == "input":
                kwargs["input_path"] = value
            elif key == "stft":
                if not isinstance(value, dict) or not set(value) <= {"window_len", "hop"}:
                    raise SpecValidationError(
                        "stft", "must be an object with window_len/hop"
                    )
                try:
                    kwargs["stft"] = dsp.StftConfig(**value)
                except ConfigError as exc:
                    raise SpecValidationError(f"stft.{exc.field}", exc.reason) from exc
            elif key in cls._GRID_FIELDS and not isinstance(value, list):
                raise SpecValidationError(key, "must be an array of numbers")
            else:
                kwargs[key] = value
        return cls(**kwargs)


@dataclass(eq=False)
class CurveRow:
    """One grid point: the swept value plus all four metrics (dB)."""

    x: float
    sdr_legacy_db: float
    snr_db: float
    si_sdr_db: float
    sd_sdr_db: float
    extra: dict = field(default_factory=dict)

    def as_dict(self, x_name: str) -> dict:
        row = {x_name: self.x,
               "sdr_legacy_db": self.sdr_legacy_db,
               "snr_db": self.snr_db,
               "si_sdr_db": self.si_sdr_db,
               "sd_sdr_db": self.sd_sdr_db}
        row.update(self.extra)
        return row


def load_input(spec: ExperimentSpec) -> Signal:
    """The experiment's speech signal: a WAV when given, the fixture otherwise."""
    if spec.input_path is not None:
        return read_wav(spec.input_path)
    return speech_like(spec.duration_s, spec.sample_rate_hz, spec.seed)


def _curve_row(x: float, clean: Signal, estimate: Signal, taps: int) -> CurveRow:
    """Evaluate all four metrics, emitting -inf sentinels for a dead estimate."""
    snr_db = metrics.snr(clean, estimate)
    try:
        si_db = metrics.si_sdr(clean, estimate)
        sd_db = metrics.sd_sdr(clean, estimate)
    except ZeroEstimateError:
        si_db = sd_db = -math.inf
    if estimate.samples.any():
        decomp = legacy.fir_project(
            estimate, clean, cfg=legacy.FirProjectionConfig(taps=taps)
        )
        legacy_db = legacy.legacy_sdr(decomp)
    else:
        legacy_db = -math.inf
    return CurveRow(x, legacy_db, snr_db, si_db, sd_db)


def orthogonal_equal_power_pair(length: int, seed: int,
                                sample_rate_hz: int = 16000) -> tuple[Signal, Signal]:
    """Two seeded noise signals made exactly orthogonal with equal energy."""
    s = dsp.white_noise(length, seed, sample_rate_hz)
    raw = dsp.white_noise(length, seed + 1, sample_rate_hz).samples
    ref = s.samples
    energy = _inner(ref)
    ortho = raw - _inner(raw, ref) / energy * ref
    ortho *= np.sqrt(energy / _inner(ortho))
    return s, Signal(ortho, sample_rate_hz)


def run_rescale_sweep(spec: ExperimentSpec) -> list[CurveRow]:
    """Metrics of ``mu * (s + n)`` against ``s`` for every ``mu`` in the grid."""
    s, n = orthogonal_equal_power_pair(spec.length, spec.seed, spec.sample_rate_hz)
    mixture = s.samples + n.samples
    rows = []
    for mu in spec.mu_grid:
        est = Signal(mu * mixture, spec.sample_rate_hz)
        row = _curve_row(mu, s, est, spec.legacy_taps)
        row.extra["sd_sdr_closed_form_db"] = metrics.db_ratio(mu * mu, (1.0 - mu) ** 2 + mu * mu)
        rows.append(row)
    return rows


def run_progressive_deletion(spec: ExperimentSpec) -> list[CurveRow]:
    """Delete a growing share of bins from a noisy mixture's spectrogram.

    The kept band is contiguous around the speech's median-energy bin and is
    shifted inward at spectrum edges so the kept-bin count is exact.
    """
    clean = load_input(spec)
    noise = dsp.white_noise(len(clean), spec.seed + 1, clean.sample_rate_hz)
    mixture, _ = dsp.mix_at_snr(clean, noise, NOISE_SNR_DB)
    center = dsp.band_center(dsp.stft(clean, spec.stft), "median-energy")
    mix_spec = dsp.stft(mixture, spec.stft)
    n_bins = spec.stft.n_bins

    rows = []
    for p in spec.proportions:
        keep = int(round((1.0 - p) * n_bins))
        gains = np.zeros(n_bins)
        if keep > 0:
            lo, hi = dsp.band_edges(center, keep, n_bins)
            gains[lo:hi + 1] = 1.0
        masked = dsp.istft(dsp.apply_mask(mix_spec, dsp.MaskVector(gains)))
        rows.append(_curve_row(p, clean, masked, spec.legacy_taps))
    return rows


def run_bandstop_sweep(spec: ExperimentSpec) -> list[CurveRow]:
    """Sweep the stop gain over a noise-corrupted band of the speech signal."""
    clean = load_input(spec)
    clean_spec = dsp.stft(clean, spec.stft)
    n_bins = spec.stft.n_bins
    center = dsp.band_center(clean_spec, "max-magnitude")
    width = dsp.hz_to_bins(BAND_WIDTH_HZ, clean.sample_rate_hz, spec.stft.window_len)
    band = dsp.band_edges(center, width, n_bins)

    raw = dsp.white_noise(len(clean), spec.seed + 1, clean.sample_rate_hz)
    pass_gains = np.zeros(n_bins)
    pass_gains[band[0]:band[1] + 1] = 1.0
    band_noise = dsp.istft(dsp.apply_mask(dsp.stft(raw, spec.stft),
                                          dsp.MaskVector(pass_gains)))
    mixture, _ = dsp.mix_at_snr(clean, band_noise, 0.0, band=band, cfg=spec.stft)
    mix_spec = dsp.stft(mixture, spec.stft)

    rows = []
    for gain in spec.gains:
        stop_gains = np.ones(n_bins)
        stop_gains[band[0]:band[1] + 1] = gain
        masked = dsp.istft(dsp.apply_mask(mix_spec, dsp.MaskVector(stop_gains)))
        rows.append(_curve_row(gain, clean, masked, spec.legacy_taps))
    return rows


def run_adversarial(spec: ExperimentSpec) -> tuple[adversary.AdversaryResult, list[CurveRow]]:
    """Run the mask optimizer; the curve is its per-iteration SI-SDR trajectory."""
    clean = load_input(spec)
    cfg = adversary.AdversaryConfig(spec.iterations, spec.stft, spec.legacy_taps)
    result = adversary.optimize(clean, cfg)
    trajectory = [
        CurveRow(float(i), math.nan, math.nan, si, math.nan)
        for i, si in enumerate(result.trajectory)
    ]
    return result, trajectory


def run_to_directory(spec: ExperimentSpec, out_dir: str) -> dict:
    """Run an experiment and write its CSV artifacts; returns summary checkpoints."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    if spec.kind == "adversarial":
        result, _ = run_adversarial(spec)
        write_csv([{"iteration": i, "si_sdr_db": si} for i, si in enumerate(result.trajectory)],
                  os.path.join(out_dir, "trajectory.csv"))
        write_csv([{"bin": i, "gain": g} for i, g in enumerate(result.mask.gains)],
                  os.path.join(out_dir, "mask.csv"))
        summary = {
            "final_si_sdr_db": result.final_si_sdr_db,
            "final_legacy_sdr_db": result.final_legacy_sdr_db,
            "gap_db": result.final_legacy_sdr_db - result.final_si_sdr_db,
        }
        write_csv([{"iterations": spec.iterations, **summary}],
                  os.path.join(out_dir, "adversarial.csv"))
        return summary

    runner, x_name, filename = {
        "rescale-sweep": (run_rescale_sweep, "mu", "rescale_sweep.csv"),
        "progressive-deletion": (run_progressive_deletion, "proportion",
                                 "progressive_deletion.csv"),
        "bandstop-sweep": (run_bandstop_sweep, "gain", "bandstop_sweep.csv"),
    }[spec.kind]
    rows = runner(spec)
    write_csv([r.as_dict(x_name) for r in rows], os.path.join(out_dir, filename))

    finite = [r for r in rows if math.isfinite(r.si_sdr_db)]
    summary: dict = {"rows": len(rows), "csv": filename}
    if finite:
        best = max(finite, key=lambda r: r.si_sdr_db)
        summary["peak_si_sdr_db"] = best.si_sdr_db
        summary[f"peak_si_sdr_{x_name}"] = best.x
    return summary
