import itertools
import logging
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import sepmetrics
from sepmetrics.audio import Signal
from sepmetrics.legacy import (
    FirProjectionConfig,
    fir_project,
    legacy_sar,
    legacy_sdr,
    legacy_sir,
)
from sepmetrics.errors import (
    CountMismatchError,
    DegenerateSourcesError,
    LengthMismatchError,
    NonFiniteError,
    ZeroEstimateError,
    ZeroReferenceError,
    ZeroTargetError,
)
from sepmetrics.metrics import (
    _assign,
    _best_assignment,
    _complete,
    _integers,
    _mean,
    decompose,
    evaluate,
    evaluate_permuted,
    prepare,
    sd_sdr,
    si_sar,
    si_sdr,
    si_sir,
    snr,
)

# Worked pair: s=[3,4], est=[2,6].
#   snr    = 10*log10(25/5)            (residual [1,-2])
#   alpha  = 30/25 = 1.2, scaled target [3.6, 4.8]
#   si_sdr = 10*log10(36/4)            (residual [1.6,-1.2])
#   sd_sdr = snr + 10*log10(1.44)
S34 = [3.0, 4.0]
E26 = [2.0, 6.0]
SNR_34 = 10 * math.log10(5.0)          # 6.98970004336...
SI_SDR_34 = 10 * math.log10(9.0)       # 9.54242509439...
SD_SDR_34 = SNR_34 + 10 * math.log10(1.44)  # 8.57332496431...


def orthogonal_equal_power(length=512, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(length)
    n = rng.standard_normal(length)
    n -= (n @ s) / (s @ s) * s
    n *= np.sqrt((s @ s) / (n @ n))
    return s, n


class TestPrepare:
    def test_coerces_to_float64_vectors(self):
        out = prepare([Signal(np.array(S34), 16000), [2, 6]])
        assert [a.dtype for a in out] == [np.float64, np.float64]
        assert out[1].tolist() == E26

    def test_truncate_then_zero_mean(self):
        a, b = prepare([[1.0, 2.0, 3.0], [4.0, 6.0]], truncate=True, zero_mean=True)
        assert a.tolist() == [-0.5, 0.5]
        assert b.tolist() == [-1.0, 1.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            prepare([[1.0, 2.0], [1.0, 2.0], [1.0]])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            prepare([np.ones((2, 2)), np.ones(4)])

    @pytest.mark.filterwarnings("error")  # no ComplexWarning: refused before any cast
    @pytest.mark.parametrize("x", [[1 + 1j, 2, 3], np.array([1, 2, 3], dtype=np.complex64)])
    def test_rejects_complex(self, x):
        with pytest.raises(ValueError, match="^expected a real signal, got dtype complex"):
            si_sdr(x, [1, 2, 3.1])
        with pytest.raises(ValueError, match="^expected a real signal"):
            prepare([[1.0, 2.0, 3.0], x])

    @pytest.mark.filterwarnings("error")  # refused before any cast
    @pytest.mark.parametrize("x", [["1", "2", "3"], [True, False, True],
                                   np.array([1.0, 2.0, 3.0], dtype=object), [b"1", b"2", b"3"]],
                             ids=["str", "bool", "object", "bytes"])
    def test_rejects_non_numeric(self, x):
        with pytest.raises(ValueError, match="^expected a signal of integer or float samples"):
            si_sdr(x, [1, 2, 3.1])
        with pytest.raises(ValueError, match="^expected a signal of integer or float samples"):
            prepare([[1.0, 2.0, 3.0], x])
        with pytest.raises(ValueError, match="^expected a signal of integer or float samples"):
            Signal(x, 16000)

    @pytest.mark.parametrize("x", [np.array([1, 2, 3], dtype=np.int16),
                                   np.array([1, 2, 3], dtype=np.int64),
                                   np.array([1, 2, 3], dtype=np.float32), [1, 2, 3], [1, 2.0, 3]],
                             ids=["int16", "int64", "float32", "int list", "mixed list"])
    def test_accepts_numbers(self, x):
        assert si_sdr(x, [1, 2, 3.1]) == si_sdr([1.0, 2.0, 3.0], [1, 2, 3.1])
        (got,) = prepare([x])
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0, 3.0]
        assert Signal(x, 16000).samples.tolist() == [1.0, 2.0, 3.0]

    def test_mixed_sample_rates_rejected(self):
        x = np.array(S34)
        with pytest.raises(sepmetrics.SampleRateMismatchError, match="16000 Hz vs 8000 Hz"):
            prepare([Signal(x, 16000), Signal(x, 16000), Signal(x, 8000)])
        assert issubclass(sepmetrics.SampleRateMismatchError, sepmetrics.SepMetricsError)

    def test_plain_arrays_carry_no_rate(self):
        x = np.array(S34)
        assert prepare([Signal(x, 8000), 2 * x])[1].tolist() == (2 * x).tolist()


class TestSnr:
    def test_worked_pair(self):
        assert snr(S34, E26) == pytest.approx(SNR_34, abs=1e-12)

    def test_perfect_estimate(self):
        assert snr(S34, S34) == math.inf

    def test_half_mixture_gains_3db(self):
        s, n = orthogonal_equal_power()
        x = s + n
        gain = snr(s, x / 2) - snr(s, x)
        assert gain == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_zero_reference(self):
        with pytest.raises(ZeroReferenceError):
            snr([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            snr([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_truncate_mode(self):
        # the length policy lives on prepare/evaluate, not on the metrics
        assert snr(*prepare([S34, E26 + [1.0, 1.0]], truncate=True)) == pytest.approx(
            SNR_34, abs=1e-12
        )
        assert evaluate(S34, E26 + [1.0, 1.0], truncate=True).snr_db == pytest.approx(
            SNR_34, abs=1e-12
        )

    def test_accepts_signal_objects(self):
        ref = Signal(np.array(S34), 16000)
        est = Signal(np.array(E26), 16000)
        assert snr(ref, est) == pytest.approx(SNR_34, abs=1e-12)


class TestSiSdr:
    def test_worked_pair(self):
        assert si_sdr(S34, E26) == pytest.approx(SI_SDR_34, abs=1e-12)

    def test_collinear_estimate(self):
        assert si_sdr(S34, [21.0, 28.0]) == math.inf

    def test_orthogonal_estimate(self):
        assert si_sdr([1.0, 0.0], [0.0, 1.0]) == -math.inf

    def test_scale_invariance_exact_for_pow2(self, rng):
        s = rng.standard_normal(300)
        e = rng.standard_normal(300)
        base = si_sdr(s, e)
        for c in (2.0, 0.5, 8.0, 2.0 ** 20, -4.0):
            assert si_sdr(s, c * e) == base

    def test_scale_invariance_general(self, rng):
        s = rng.standard_normal(300)
        e = rng.standard_normal(300)
        base = si_sdr(s, e)
        for c in (3.7, 0.013, -11.1):
            assert si_sdr(s, c * e) == pytest.approx(base, abs=1e-9)

    def test_reference_scale_covariance(self, rng):
        s = rng.standard_normal(300)
        e = rng.standard_normal(300)
        base = si_sdr(s, e)
        for c in (2.0, 0.25, 5.5):
            assert si_sdr(c * s, e) == pytest.approx(base, abs=1e-9)

    def test_mixture_rescaling_invariant(self):
        s, n = orthogonal_equal_power()
        x = s + n
        base = si_sdr(s, x)
        assert base == pytest.approx(0.0, abs=1e-9)
        for mu in (0.1, 0.5, 2.0, 100.0):
            assert si_sdr(s, mu * x) == pytest.approx(base, abs=1e-9)

    def test_beta_form_equivalence(self, rng):
        # Eq-style dual: rescale the estimate by beta = ||s||^2 / <s, est>
        # so the residual is orthogonal to s; must agree with the alpha form.
        for _ in range(50):
            s = rng.standard_normal(128)
            e = rng.standard_normal(128)
            beta = (s @ s) / (s @ e)
            beta_form = 10 * math.log10((s @ s) / np.sum((s - beta * e) ** 2))
            assert si_sdr(s, e) == pytest.approx(beta_form, abs=1e-10)

    def test_alpha_residual_orthogonal_to_reference(self, rng):
        for _ in range(20):
            s = rng.standard_normal(256)
            e = rng.standard_normal(256)
            alpha = (e @ s) / (s @ s)
            resid = alpha * s - e
            rel = abs(resid @ s) / (np.linalg.norm(resid) * np.linalg.norm(s))
            assert rel < 1e-10

    def test_zero_estimate(self):
        with pytest.raises(ZeroEstimateError):
            si_sdr(S34, [0.0, 0.0])


class TestSdSdr:
    def test_worked_pair(self):
        assert sd_sdr(S34, E26) == pytest.approx(SD_SDR_34, abs=1e-12)

    def test_equals_snr_plus_alpha_term(self, rng):
        for _ in range(20):
            s = rng.standard_normal(200)
            e = rng.standard_normal(200)
            alpha = (e @ s) / (s @ s)
            assert sd_sdr(s, e) == pytest.approx(
                snr(s, e) + 10 * math.log10(alpha * alpha), abs=1e-9
            )

    def test_perfect_estimate(self):
        assert sd_sdr(S34, S34) == math.inf

    def test_doubled_estimate_penalized(self):
        # est = 2s: SNR(s, 2s) = 0 dB, so SD-SDR = 10*log10(4), not +inf.
        s = np.array(S34)
        assert snr(s, 2 * s) == pytest.approx(0.0, abs=1e-12)
        assert sd_sdr(s, 2 * s) == pytest.approx(10 * math.log10(4.0), abs=1e-12)
        assert si_sdr(s, 2 * s) == math.inf

    def test_mu_curve_closed_form(self):
        s, n = orthogonal_equal_power(2048, seed=5)
        x = s + n
        for mu in np.arange(0.1, 5.01, 0.1):
            expected = 10 * math.log10(mu * mu / ((1 - mu) ** 2 + mu * mu))
            assert sd_sdr(s, mu * x) == pytest.approx(expected, abs=1e-9)

    def test_mu_curve_peaks_at_one(self):
        s, n = orthogonal_equal_power(2048, seed=5)
        x = s + n
        grid = np.arange(0.1, 5.01, 0.1)
        values = [sd_sdr(s, mu * x) for mu in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(1.0)
        assert max(values) == pytest.approx(0.0, abs=1e-9)

    def test_at_most_si_sdr(self, rng):
        for _ in range(50):
            s = rng.standard_normal(100)
            e = rng.standard_normal(100)
            assert sd_sdr(s, e) <= si_sdr(s, e) + 1e-12

    def test_zero_gain_estimate(self):
        assert sd_sdr([1.0, 0.0], [0.0, 1.0]) == -math.inf


class TestDecompose:
    def test_orthonormal_axes_oracle(self):
        # Hand projection: s, n are coordinate axes, so the split is literal.
        d = decompose([1.0, 0, 0], [0.8, 0.3, 0.1], [[0.0, 1.0, 0.0]])
        assert d.alpha == pytest.approx(0.8, abs=1e-15)
        assert np.allclose(d.e_target, [0.8, 0, 0], atol=1e-15)
        assert np.allclose(d.e_interf, [0, 0.3, 0], atol=1e-15)
        assert np.allclose(d.e_artif, [0, 0, 0.1], atol=1e-15)
        assert si_sir(d) == pytest.approx(10 * math.log10(0.64 / 0.09), abs=1e-12)
        assert si_sar(d) == pytest.approx(10 * math.log10(0.64 / 0.01), abs=1e-12)

    def test_worked_identity(self):
        # 10^(-SDR/10) = 10^(-SIR/10) + 10^(-SAR/10) on the axes example.
        d = decompose([1.0, 0, 0], [0.8, 0.3, 0.1], [[0.0, 1.0, 0.0]])
        sdr = si_sdr([1.0, 0, 0], [0.8, 0.3, 0.1])
        assert sdr == pytest.approx(10 * math.log10(6.4), abs=1e-12)
        lhs = 10 ** (-sdr / 10)
        rhs = 10 ** (-si_sir(d) / 10) + 10 ** (-si_sar(d) / 10)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_estimate_in_span_has_no_artifacts(self, rng):
        s = rng.standard_normal(64)
        n = rng.standard_normal(64)
        est = 0.7 * s - 1.3 * n
        d = decompose(s, est, [n])
        assert np.linalg.norm(d.e_artif) < 1e-10 * np.linalg.norm(est)

    def test_no_interferers(self, rng):
        s = rng.standard_normal(64)
        est = rng.standard_normal(64)
        d = decompose(s, est)
        assert np.array_equal(d.e_interf, np.zeros(64))
        assert np.array_equal(d.e_artif, d.e_res)

    def test_mixture_passthrough(self):
        s, n = orthogonal_equal_power(512, seed=2)
        d = decompose(s, s + n, [n])
        assert si_sir(d) == pytest.approx(0.0, abs=1e-9)
        assert si_sar(d) > 250  # residual lies in the source span

    def test_invariants(self, rng):
        for _ in range(20):
            s = rng.standard_normal(128)
            n1 = rng.standard_normal(128)
            n2 = rng.standard_normal(128)
            est = rng.standard_normal(128)
            d = decompose(s, est, [n1, n2])
            scale = np.linalg.norm(d.e_target) * np.linalg.norm(d.e_res) + 1e-300
            assert abs(d.e_target @ d.e_res) / scale < 1e-10
            scale = (np.linalg.norm(d.e_interf) * np.linalg.norm(d.e_artif) + 1e-300)
            assert abs(d.e_interf @ d.e_artif) / scale < 1e-10
            assert np.allclose(d.e_res, d.e_interf + d.e_artif, rtol=1e-12, atol=1e-14)
            assert np.allclose(d.e_target, d.alpha * s, rtol=0, atol=0)

    def test_beta_accessor(self):
        d = decompose(S34, E26)
        assert d.beta == pytest.approx(1 / 1.2, abs=1e-15)
        orth = decompose([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            _ = orth.beta

    @pytest.mark.parametrize("length", [32, 1000])
    def test_dependent_sources_project_uniquely(self, rng, dependent, length):
        # The Gram matrix is singular, but the projection onto the sources'
        # span is unique: the scores equal those of the independent sources.
        s, r, est = rng.standard_normal((3, length))
        interferers, independent = dependent(s, r)
        d = decompose(s, est, interferers)
        if independent:
            lone = decompose(s, est, independent)
            assert si_sir(d) == pytest.approx(si_sir(lone), abs=1e-9)
            assert si_sar(d) == pytest.approx(si_sar(lone), abs=1e-9)
        else:  # the span adds nothing to span{s}, to which e_res is orthogonal
            assert np.linalg.norm(d.e_interf) <= 1e-12 * np.linalg.norm(d.e_res)
            assert si_sar(d) == pytest.approx(si_sdr(s, est), abs=1e-9)

    def test_solver_raises_beyond_jitter(self):
        from sepmetrics.linalg import solve_spd
        # [[1, 2], [2, 1]] as the Toeplitz column [1, 2], which Levinson-Durbin rejects
        indefinite = np.array([1.0, 2.0])[:, None, None]
        with pytest.raises(DegenerateSourcesError):
            solve_spd(indefinite, np.ones((1, 2)))

    def test_zero_target_errors(self):
        d = decompose([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ZeroTargetError):
            si_sir(d)
        with pytest.raises(ZeroTargetError):
            si_sar(d)


@pytest.mark.parametrize("fn", [snr, si_sdr, sd_sdr, decompose, evaluate])
@pytest.mark.parametrize("estimate", [np.ones(64), np.zeros(64)], ids=["nonzero", "zero"])
def test_reference_whose_energy_underflows(fn, estimate):
    # nonzero samples whose squares all underflow: ||ref||^2 is 0, as for an
    # all-zero reference, and that is reported before any zero estimate
    ref = np.full(64, 1e-170)
    assert ref.any() and float(np.einsum("i,i->", ref, ref)) == 0.0
    with pytest.raises(ZeroReferenceError):
        fn(ref, estimate)


class TestEnergyIdentity:
    def test_thousand_random_triples(self, rng):
        # Acceptance-grade identity check at smaller scale; the dedicated
        # acceptance test runs the full 1000-triple version.
        for _ in range(100):
            s = rng.standard_normal(64)
            n = rng.standard_normal(64)
            est = rng.standard_normal(64)
            d = decompose(s, est, [n])
            lhs = 10 ** (-si_sdr(s, est) / 10)
            rhs = 10 ** (-si_sir(d) / 10) + 10 ** (-si_sar(d) / 10)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestEvaluate:
    def test_mixture_baseline(self):
        s, n = orthogonal_equal_power()
        report = evaluate(s, s + n, [n])
        assert report.snr_db == pytest.approx(0.0, abs=1e-9)
        assert report.si_sdr_db == pytest.approx(0.0, abs=1e-9)
        assert report.min_snr_sdsdr_db == min(report.snr_db, report.sd_sdr_db)
        assert report.si_sir_db == pytest.approx(0.0, abs=1e-9)

    def test_perfect_estimate(self, rng):
        s = rng.standard_normal(100)
        report = evaluate(s, s.copy())
        assert report.snr_db == math.inf
        assert report.si_sdr_db == math.inf
        assert report.sd_sdr_db == math.inf
        assert report.min_snr_sdsdr_db == math.inf
        assert report.si_sir_db is None and report.si_sar_db is None

    def test_sir_sar_present_iff_interferers(self, rng):
        s, n, e = rng.standard_normal((3, 80))
        assert evaluate(s, e).si_sir_db is None
        assert evaluate(s, e, [n]).si_sir_db is not None

    def test_zero_mean_option(self, rng):
        s = rng.standard_normal(100) + 5.0
        e = rng.standard_normal(100) + 7.0
        centered = evaluate(s, e, zero_mean=True)
        manual = si_sdr(s - s.mean(), e - e.mean())
        assert centered.si_sdr_db == pytest.approx(manual, abs=1e-12)

    def test_report_identity_invariant(self, rng):
        s, n, e = rng.standard_normal((3, 90))
        report = evaluate(s, e, [n])
        lhs = 10 ** (-report.si_sdr_db / 10)
        rhs = 10 ** (-report.si_sir_db / 10) + 10 ** (-report.si_sar_db / 10)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("kind", ["random", "copy", "rescale", "orthogonal", "near_perfect"])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_bits_as_the_public_functions(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 3, 17, 1000, 5000]))
        s = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
        e = {"random": lambda: rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5),
             "copy": s.copy,
             "rescale": lambda: s * rng.uniform(0.1, 10.0),
             "orthogonal": lambda: (lambda r: r - (r @ s) / (s @ s) * s)(rng.standard_normal(n)),
             "near_perfect": lambda: s + 1e-9 * np.abs(s).max() * rng.standard_normal(n)}[kind]()
        report = evaluate(s, e)
        assert (report.snr_db, report.si_sdr_db, report.sd_sdr_db) == (
            snr(s, e), si_sdr(s, e), sd_sdr(s, e))

    @pytest.mark.parametrize("ref, est, error", [
        ([0.0, 0.0], [1.0, np.nan], ZeroReferenceError),
        ([1.0, 2.0], [0.0, 0.0], ZeroEstimateError),
        ([1.0, np.nan], [1.0, 2.0], NonFiniteError),
        ([1.0, np.inf], [0.0, 0.0], NonFiniteError),  # snr's energies come first
    ])
    def test_error_order_of_the_public_functions(self, ref, est, error):
        with pytest.raises(error):
            evaluate(ref, est)
        with pytest.raises(error):
            for fn in (snr, si_sdr, sd_sdr):
                fn(ref, est)


def exhaustive_assignment(matrix):
    """Oracle: score every permutation, fsum mean, NaN as -inf, first one wins ties."""
    k = len(matrix)
    best, best_score = None, -math.inf
    for perm in itertools.permutations(range(k)):
        try:  # math.fsum over k, rescaled where the sum overflows (TestMean)
            score = _mean([matrix[j][perm[j]] for j in range(k)])
        except ValueError:  # fsum refuses -inf + inf
            score = math.nan
        if math.isnan(score):
            score = -math.inf
        if best is None or score > best_score:
            best, best_score = perm, score
    return best


def _with_infs(rng, k, nan=False):
    matrix = rng.integers(-2, 3, (k, k)).astype(float)
    draw = rng.random((k, k))
    matrix[draw < 0.2] = math.inf
    matrix[(draw >= 0.2) & (draw < 0.4)] = -math.inf
    if nan:
        matrix[draw > 0.85] = math.nan
    return matrix


def _duplicated(rng, k, axis):
    matrix = rng.standard_normal((k, k))
    if k > 1:
        if axis == 0:
            matrix[k - 1] = matrix[0]
        else:
            matrix[:, k - 1] = matrix[:, 0]
    return matrix


def _hall_violating(rng, k):
    """Rows that share fewer finite columns than they number: no all-finite assignment."""
    matrix = _with_infs(rng, k)
    rows = rng.permutation(k)[:int(rng.integers(1, k + 1))]
    cols = rng.permutation(k)[:rows.size - 1]
    matrix[np.ix_(rows, np.setdiff1d(np.arange(k), cols))] = -math.inf
    return matrix


def _offset_ties(rng, k, *shapes, holes=0.0):
    """Small integers under offsets near 1e16 (float64 spacing 2 and up), summed
    over one draw per shape (1: one for all, (k, 1): per row, k: per column),
    with a share ``holes`` of -inf entries.
    """
    offsets = sum(rng.choice([1e16, -1e16, 3e16], size=shape) for shape in shapes)
    matrix = offsets + rng.integers(0, 4, (k, k))
    matrix[rng.random((k, k)) < holes] = -math.inf
    return matrix


MATRIX_KINDS = {
    "random": lambda rng, k: rng.standard_normal((k, k)) * 10.0,
    "integer_ties": lambda rng, k: rng.integers(0, 3, (k, k)).astype(float),
    "duplicated_row": lambda rng, k: _duplicated(rng, k, 0),
    "duplicated_column": lambda rng, k: _duplicated(rng, k, 1),
    "plus_minus_inf": lambda rng, k: _with_infs(rng, k),
    "nan": lambda rng, k: _with_infs(rng, k, nan=True),
    "hall_violating": _hall_violating,
    "huge": lambda rng, k: rng.choice([-1.7e308, -1e308, 1e308, 1.5e308, 1.7e308, 0.0, 1.0],
                                      size=(k, k)),
    "offset_ties": lambda rng, k: _offset_ties(rng, k, 1),
    "row_offset_ties": lambda rng, k: _offset_ties(rng, k, (k, 1)),
    # per-column (and per-row) offsets with -inf holes: sums round at the
    # offsets' spacing, so some unequal sums tie
    "column_offset_holes": lambda rng, k: _offset_ties(rng, k, k, holes=0.25),
    "row_column_offset_holes": lambda rng, k: _offset_ties(rng, k, (k, 1), k, holes=0.25),
    # sums apart by a few units in the last place: some round to one mean
    "ulp_ties": lambda rng, k: 1.0 + rng.integers(0, 4, (k, k)) * 2.0 ** -52,
}


def every_candidate_search(matrix):
    """Oracle beyond k = 8: the search's classes, re-solving every allowed tie candidate."""
    k = len(matrix)
    rows = np.arange(k)
    best = None
    if (matrix == math.inf).any():
        weights = [[1 if x == math.inf else 0 if math.isfinite(x) else None for x in row]
                   for row in matrix.tolist()]
        best = _complete(weights, [])
    if best is None or _mean(matrix[rows, best]) != math.inf:
        weights = _integers(matrix)[0]
        solved = _assign(weights)
        if solved is None:
            return tuple(range(k))
        best = solved[0]
    best_score = _mean(matrix[rows, best])
    for j in range(k):
        for c in range(best[j]):
            if c in best[:j] or weights[j][c] is None:
                continue
            candidate = _complete(weights, best[:j] + [c])
            if candidate is not None and (score := _mean(matrix[rows, candidate])) >= best_score:
                best, best_score = candidate, score
                break
    return tuple(best)


def matrix_metric(matrix):
    """One-sample signals tagged 1..k and a metric that looks their pair up."""
    k = len(matrix)
    refs = [np.array([j + 1.0]) for j in range(k)]
    ests = [np.array([c + 1.0]) for c in range(k)]
    return refs, ests, lambda r, e: float(matrix[int(r[0]) - 1][int(e[0]) - 1])


class TestMean:
    def test_equals_fsum_over_k(self, rng):
        values = list(rng.standard_normal(7))
        assert _mean(values) == math.fsum(values) / 7

    def test_overflowing_sum_scales_like_the_unscaled_one(self, rng):
        # 2**1000 times 20 values in [2**20, 2**23): their sum overflows, the
        # mean does not, and scaling by a power of two commutes with rounding.
        values = list((1.0 + np.minimum(np.abs(rng.standard_normal(20)), 6.0)) * 2.0 ** 20)
        scaled = [math.ldexp(v, 1000) for v in values]
        with pytest.raises(OverflowError):
            math.fsum(scaled)
        assert _mean(scaled) == math.ldexp(_mean(values), 1000)

    def test_huge_values(self):
        assert _mean([1e308, 1e308]) == 1e308
        assert _mean([1e308, 1e308, math.inf]) == math.inf


def _exact(matrix):
    """Finite entries as integers over their least common denominator, the rest None.

    Every float64 denominator is a power of two, so that is the largest one.
    """
    fractions = [[Fraction(x) if math.isfinite(x) else None for x in row] for row in matrix]
    denominator = math.lcm(*(f.denominator for row in fractions for f in row if f is not None))
    return [[None if f is None else int(f * denominator) for f in row] for row in fractions]


def _total(weights, cols):
    """An assignment's exact sum; None where it uses a forbidden entry."""
    entries = [weights[j][c] for j, c in enumerate(cols)]
    return None if None in entries else sum(entries)


class TestAssign:
    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    @pytest.mark.parametrize("k", range(1, 8))
    def test_agrees_with_exhaustive_search(self, k, kind):
        for seed in range(4):
            matrix = MATRIX_KINDS[kind](np.random.default_rng([k, seed, 1]), k)
            weights = _exact(matrix)
            assert _integers(matrix)[0] == weights  # the search's scores, exactly
            sums = [t for perm in itertools.permutations(range(k))
                    if (t := _total(weights, perm)) is not None]
            solved = _assign(weights)
            if not sums:
                assert solved is None, (kind, k, seed)
                continue
            cols, u, v = solved
            assert sorted(cols) == list(range(k))
            assert _total(weights, cols) == max(sums)
            # the duals bound every allowed entry and are tight on the assignment
            assert all(u[j] + v[c] >= w for j, row in enumerate(weights)
                       for c, w in enumerate(row) if w is not None)
            assert [u[j] + v[c] for j, c in enumerate(cols)] == [
                weights[j][c] for j, c in enumerate(cols)]

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_optimum_matches_scipy(self, k):
        from scipy.optimize import linear_sum_assignment  # the reference, in this test only
        rng = np.random.default_rng(k)
        rows, planted = np.arange(k), rng.permutation(k)
        noise = rng.normal(0.0, 3.0, (k, k))
        signal = noise.copy()
        signal[rows, planted] += 10.0
        holes = noise.copy()
        holes[(rng.random((k, k)) < 0.3) & (np.arange(k) != planted[:, None])] = -math.inf
        for matrix in (noise, signal, holes, rng.integers(0, 3, (k, k)).astype(float)):
            _, want = linear_sum_assignment(matrix, maximize=True)
            optimum = math.fsum(matrix[rows, want])
            assert math.fsum(matrix[rows, list(_best_assignment(matrix))]) == optimum
            weights = _exact(matrix)
            assert _total(weights, _assign(weights)[0]) == _total(weights, want)


class TestEvaluatePermuted:
    def test_swapped_copies(self, rng):
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        perm, reports = evaluate_permuted([a, b], [b.copy(), a.copy()])
        assert perm == (1, 0)
        assert reports[0].si_sdr_db == math.inf
        assert reports[1].si_sdr_db == math.inf

    def test_mixed_sample_rates_rejected(self, rng):
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        with pytest.raises(sepmetrics.SampleRateMismatchError, match="16000 Hz vs 8000 Hz"):
            evaluate_permuted([Signal(a, 16000), Signal(b, 16000)],
                              [Signal(b, 8000), Signal(a, 16000)])

    def test_single_source(self, rng):
        perm, reports = evaluate_permuted([rng.standard_normal(32)],
                                          [rng.standard_normal(32)])
        assert perm == (0,)
        assert len(reports) == 1

    def test_matches_bruteforce_oracle(self, rng):
        refs = [rng.standard_normal(128) for _ in range(3)]
        mix = [refs[i] + 0.5 * refs[(i + 1) % 3] + 0.1 * rng.standard_normal(128)
               for i in range(3)]
        perm, _ = evaluate_permuted(refs, mix, "si-sdr")
        assert perm == exhaustive_assignment([[si_sdr(r, e) for e in mix] for r in refs])

    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_agrees_with_exhaustive_search(self, k, kind):
        # fewer draws at k = 7, 8, where the oracle scores 5040 / 40320 assignments
        for seed in range(6 if k <= 6 else 4):
            matrix = MATRIX_KINDS[kind](np.random.default_rng([k, seed]), k)
            refs, ests, metric = matrix_metric(matrix)
            perm, reports = evaluate_permuted(refs, ests, metric)
            assert perm == exhaustive_assignment(matrix), (kind, k, seed, matrix)
            assert all(type(c) is int for c in perm)
            assert len(reports) == k

    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    @pytest.mark.parametrize("k", range(9, 15))
    def test_agrees_with_every_candidate_search(self, k, kind):
        # beyond the exhaustive oracle's reach: the skip rule must drop no tie
        for seed in range(2):
            matrix = MATRIX_KINDS[kind](np.random.default_rng([k, seed, 2]), k)
            assert _best_assignment(matrix) == every_candidate_search(matrix), (kind, k, seed)

    def test_equivariant_under_estimate_permutation(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 7))
            refs = [rng.standard_normal(96) for _ in range(k)]
            ests = [r + 0.8 * rng.standard_normal(96) for r in refs]
            base, _ = evaluate_permuted(refs, ests)
            shuffle = rng.permutation(k)  # position i now holds estimate shuffle[i]
            again, _ = evaluate_permuted(refs, [ests[i] for i in shuffle])
            inverse = np.argsort(shuffle)
            assert again == tuple(int(inverse[c]) for c in base)

    def test_assignment_invariant_to_estimate_rescaling(self, rng):
        refs = [rng.standard_normal(96) for _ in range(3)]
        ests = [r + 0.3 * rng.standard_normal(96) for r in refs[::-1]]
        base, _ = evaluate_permuted(refs, ests, "si-sdr")
        scaled = [e * c for e, c in zip(ests, (0.01, 100.0, 7.0))]
        again, _ = evaluate_permuted(refs, scaled, "si-sdr")
        assert base == again

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_assignment_minus_inf_keeps_identity(self, rng, k):
        # References on samples 0-499, estimates on 500-999: every pair scores
        # exactly -inf, so all assignments tie and the first one wins.
        refs, ests = [], []
        for _ in range(k):
            refs.append(np.concatenate([rng.standard_normal(500), np.zeros(500)]))
            ests.append(np.concatenate([np.zeros(500), rng.standard_normal(500)]))
        perm, reports = evaluate_permuted(refs, ests)
        assert perm == tuple(range(k))
        assert [r.si_sdr_db for r in reports] == [-math.inf] * k

    def test_overflowing_sums_tie_to_identity(self):
        # every assignment's sum overflows; its mean is 1e308 all the same
        refs, ests, metric = matrix_metric([[1e308, 1e308], [1e308, 1e308]])
        perm, _ = evaluate_permuted(refs, ests, metric)
        assert perm == (0, 1)

    def test_overflowing_sums_still_rank(self):
        refs, ests, metric = matrix_metric([[1e308, 1.5e308], [1.5e308, 1e308]])
        perm, _ = evaluate_permuted(refs, ests, metric)
        assert perm == (1, 0)

    def test_overflowing_sum_next_to_plus_inf(self):
        matrix = np.full((3, 3), 1e308)
        matrix[0, 1] = math.inf
        refs, ests, metric = matrix_metric(matrix)
        perm, _ = evaluate_permuted(refs, ests, metric)
        assert perm == (1, 0, 2)

    def test_count_mismatch(self, rng):
        with pytest.raises(CountMismatchError):
            evaluate_permuted([rng.standard_normal(10)], [])

    def test_no_pairs(self):
        with pytest.raises(CountMismatchError, match="at least one"):
            evaluate_permuted([], [])

    def test_recovers_planted_permutation_beyond_eight_sources(self, rng):
        k = 12
        planted = rng.permutation(k)
        refs = [rng.standard_normal(256) for _ in range(k)]
        ests = [None] * k
        for j, c in enumerate(planted):
            ests[c] = refs[j] + 0.3 * rng.standard_normal(256)
        perm, reports = evaluate_permuted(refs, ests)
        assert perm == tuple(int(c) for c in planted)
        assert len(reports) == k

    def test_metric_selector(self, rng):
        refs = [rng.standard_normal(64) for _ in range(2)]
        ests = [r * 2.0 for r in refs]
        perm_snr, _ = evaluate_permuted(refs, ests, "snr")
        perm_custom, _ = evaluate_permuted(refs, ests, snr)
        assert perm_snr == perm_custom
        with pytest.raises(ValueError):
            evaluate_permuted(refs, ests, "pesq")

    @pytest.mark.parametrize("kind, won", [("random", "finite"), ("plus_minus_inf", "+inf"),
                                           ("hall_violating", "none")])
    def test_one_debug_record_per_search(self, caplog, kind, won):
        k = 6
        matrix = MATRIX_KINDS[kind](np.random.default_rng([k, 0]), k)
        refs, ests, metric = matrix_metric(matrix)
        with caplog.at_level(logging.DEBUG, logger="sepmetrics.metrics"):
            perm, _ = evaluate_permuted(refs, ests, metric)
        assert perm == exhaustive_assignment(matrix)
        [record] = [r.getMessage() for r in caplog.records if r.name == "sepmetrics.metrics"]
        found = re.fullmatch(r"evaluate_permuted: k=6, (\S+) class won, (\d+) assignment "
                             r"solves, (\d+) candidates skipped", record)
        assert found and found[1] == won, record
        if won == "finite":  # distinct real scores: the duals skip some candidates
            assert int(found[3]) > 0, record

    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    def test_one_solve_on_separation_scores(self, caplog, k):
        # SI-SDR of noisy estimates of independent sources, in a planted order:
        # every tie candidate's entry is far above the slack, so none is re-solved
        rng = np.random.default_rng(k)
        refs = rng.standard_normal((k, 4000))
        planted = rng.permutation(k)
        ests = [None] * k
        for j, c in enumerate(planted):
            ests[c] = refs[j] + rng.uniform(0.3, 3.0) * rng.standard_normal(4000)
        with caplog.at_level(logging.DEBUG, logger="sepmetrics.metrics"):
            perm, _ = evaluate_permuted(refs, ests)
        assert perm == tuple(planted.tolist())
        [record] = [r.getMessage() for r in caplog.records if r.name == "sepmetrics.metrics"]
        assert re.fullmatch(rf"evaluate_permuted: k={k}, finite class won, 1 assignment "
                            r"solves, \d+ candidates skipped", record), record

    def test_runs_on_numpy_alone(self, tmp_path):
        # A fresh interpreter: pytest's own imports would otherwise leak in.
        # Only solve_spd's pivoted-Cholesky fallback imports scipy, and none of
        # these calls reaches it: the permutation search included, nothing loads scipy.
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "import sepmetrics, sepmetrics.cli\n"
            "from sepmetrics import AdversaryConfig, Signal, FirProjectionConfig\n"
            "x = np.random.default_rng(0).standard_normal((4, 2000))\n"
            "cfg = FirProjectionConfig(taps=64)\n"
            "sepmetrics.fir_project(x[0] + x[1], x[0], cfg=cfg)\n"
            "sepmetrics.fir_project(x[0] + x[1], x[0], x[2:], cfg=cfg)\n"
            "sepmetrics.decompose(x[0], x[0] + x[1], x[1:])\n"
            "sepmetrics.optimize(sepmetrics.speech_like(0.25), AdversaryConfig(iterations=3))\n"
            "path = os.path.join(sys.argv[1], 'x.wav')\n"
            "sepmetrics.write_wav(Signal(x[0]), path)\n"
            "sepmetrics.read_wav(path)\n"
            "assert sepmetrics.evaluate_permuted(x[:2], x[1::-1])[0] == (1, 0)\n"
            "refs, ests = (os.path.join(sys.argv[1], d) for d in ('refs', 'ests'))\n"
            "for d, order in ((refs, 'ab'), (ests, 'ba')):\n"
            "    os.mkdir(d)\n"
            "    for name, row in zip(order, x):\n"
            "        sepmetrics.write_wav(Signal(row), os.path.join(d, name + '.wav'))\n"
            "assert sepmetrics.cli.main(['eval-set', '--refs', refs, '--ests', ests,\n"
            "                            '--permute']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(sepmetrics.__file__)))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=src),
                              check=True, capture_output=True, text=True)
        assert done.stdout.splitlines()[-1] == "[]"
        assert "permutation: 1,0" in done.stderr.splitlines()


def _poisoned(x, value):
    x = x.copy()
    x[x.size // 2] = value
    return x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["reference", "estimate", "interferer", "fir_project",
                                   "fir_project_blocks"])
def test_nonfinite_input_raises(rng, where, value):
    ref, est, noise = (rng.standard_normal(256) for _ in range(3))
    if where == "fir_project":
        cases, taps = [(_poisoned(est, value), ref, ()), (est, _poisoned(ref, value), ()),
                       (est, ref, [_poisoned(noise, value)])], 8
    if where == "fir_project_blocks":
        # L = 3B + 1 at 512 taps (B = 1537): the one poisoned sample, in the
        # estimate, the reference or either interferer, misses most blocks.
        cases, taps = [], 512
        for k in range(4):
            signals = list(rng.standard_normal((4, 3 * 1537 + 1)))
            signals[k] = _poisoned(signals[k], value)
            cases.append((signals[0], signals[1], signals[2:]))
    if where.startswith("fir_project"):
        for args in cases:
            decomp = fir_project(*args, cfg=FirProjectionConfig(taps=taps))
            for metric in (legacy_sdr, legacy_sir, legacy_sar):
                with pytest.raises(NonFiniteError):
                    metric(decomp)
        return
    if where == "interferer":
        with pytest.raises(NonFiniteError):
            evaluate(ref, est, [_poisoned(noise, value)])
        return
    if where == "reference":
        ref = _poisoned(ref, value)
    else:
        est = _poisoned(est, value)
    for metric in (snr, si_sdr, sd_sdr):
        with pytest.raises(NonFiniteError):
            metric(ref, est)
    with pytest.raises(NonFiniteError):
        evaluate(ref, est)
