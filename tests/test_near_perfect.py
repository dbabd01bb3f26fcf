"""Near perfect reconstruction: which results are +inf and which stay finite.

Close to an exact match the residual energy is a handful of rounding errors,
so these tests pin the class of each result (+inf sentinel or a finite
number) rather than its value, plus the few ratios that are exact by
construction.
"""

import math

import numpy as np
import pytest

from sepmetrics import adversary
from sepmetrics.fixtures import speech_like
from sepmetrics.legacy import FirProjectionConfig, fir_project, legacy_sdr
from sepmetrics.metrics import evaluate, sd_sdr, si_sdr, snr


@pytest.fixture(scope="module")
def clean():
    return speech_like(duration_s=0.5, seed=0).samples


def one_ulp_up(x):
    y = x.copy()
    y[y.size // 3] = np.nextafter(y[y.size // 3], math.inf)
    return y


# estimate -> expected (snr, si_sdr, sd_sdr): True means +inf, False finite.
CASES = {
    "exact_copy": (lambda s: s.copy(), (True, True, True)),
    "times_2": (lambda s: s * 2.0, (False, True, False)),
    "times_2^-3": (lambda s: s * 0.125, (False, True, False)),
    "times_2^5": (lambda s: s * 32.0, (False, True, False)),
    "one_ulp": (one_ulp_up, (False, False, False)),
}


def is_plus_inf(value):
    if math.isfinite(value):
        return False
    assert value == math.inf, value
    return True


@pytest.mark.parametrize("case", sorted(CASES))
def test_metric_classes(clean, case):
    make, expected = CASES[case]
    est = make(clean)
    got = tuple(is_plus_inf(fn(clean, est)) for fn in (snr, si_sdr, sd_sdr))
    assert got == expected
    report = evaluate(clean, est)
    assert tuple(map(is_plus_inf, (report.snr_db, report.si_sdr_db, report.sd_sdr_db))) == expected
    assert is_plus_inf(report.min_snr_sdsdr_db) == (expected[0] and expected[2])


def test_exact_copy_with_interferer_has_no_interference_or_artifacts(clean):
    noise = speech_like(duration_s=0.5, seed=1).samples
    report = evaluate(clean, clean.copy(), [noise])
    assert report.si_sir_db == report.si_sar_db == math.inf


def test_legacy_sdr_stays_finite_for_an_exact_copy(clean):
    # The 512-tap projection reproduces the copy only to rounding, so the
    # legacy SDR is a large finite number where SI-SDR is exactly +inf.
    value = legacy_sdr(fir_project(clean, clean, cfg=FirProjectionConfig(taps=512)))
    assert math.isfinite(value) and value > 250.0
    assert si_sdr(clean, clean) == math.inf


def test_adversary_objective_at_all_ones_mask_is_finite(short_speech):
    # Zero weights give the all-ones mask: STFT then iSTFT reconstructs the
    # input to rounding only, so the objective is finite, not +inf.
    value = adversary.objective(np.zeros(257), short_speech)
    assert math.isfinite(value) and value > 250.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("duration_s", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_sd_sdr_of_power_of_two_rescaling_is_exact(seed, duration_s):
    # For c in {1/2, 2, -1} both c*s and s - c*s are exact power-of-two
    # multiples of s, so both energies are power-of-two multiples of the same
    # sum and the ratio is c^2/(1-c)^2 with no rounding at all.
    s = speech_like(duration_s=duration_s, seed=seed).samples
    for c in (0.5, 2.0, -1.0):
        assert sd_sdr(s, c * s) == 10.0 * math.log10(c * c / (1.0 - c) ** 2), c
