import logging

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from sepmetrics import linalg
from sepmetrics.fixtures import speech_like
from sepmetrics.linalg import solve_spd


def autocorrelation_column(rng, taps, length=400):
    """First column of a well-conditioned SPD Toeplitz Gram matrix, as ``(taps, 1, 1)`` lag blocks."""
    x = rng.standard_normal(length)
    full = np.correlate(x, x, mode="full")
    return full[length - 1:length - 1 + taps, None, None]


def cholesky_answer(gram, rhs):
    """The dense fallback's answer, bit for bit: ``solve_spd``'s calls, ``dpstrf`` on a copy."""
    low, piv, rank, _ = scipy.linalg.lapack.dpstrf(gram, lower=1)
    order = piv[:rank] - 1
    y = np.asarray(rhs, dtype=np.float64).ravel()[order]
    for k in range(rank):
        y[k] = (y[k] - np.einsum("i,i->", low[k, :k], y[:k])) / low[k, k]
    for k in range(rank - 1, -1, -1):
        y[k] = (y[k] - np.einsum("i,i->", low[k + 1:rank, k], y[k + 1:])) / low[k, k]
    x = np.zeros(np.size(rhs))
    x[order] = y
    return x.reshape(np.shape(rhs))


def dense_answer(column, rhs):
    return cholesky_answer(scipy.linalg.toeplitz(column[:, 0, 0]), rhs[0])[None]


@pytest.fixture()
def debug_log(caplog):
    caplog.set_level(logging.DEBUG, logger="sepmetrics")
    return caplog


def messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name.startswith("sepmetrics")]


class TestToeplitzPath:
    """One signal: ``(p, 1, 1)`` lag blocks are solved by scalar Levinson recursion."""

    @pytest.mark.parametrize("taps", [1, 2, 17, 128])
    def test_matches_dense_cholesky(self, rng, taps, debug_log):
        column = autocorrelation_column(rng, taps)
        rhs = rng.standard_normal((1, taps))
        x = solve_spd(column, rhs)
        np.testing.assert_allclose(x, dense_answer(column, rhs), rtol=1e-9, atol=0)
        (msg,) = messages(debug_log)
        assert msg.startswith("solve_spd: Levinson (")

    def test_perturbed_levinson_falls_back_to_cholesky(self, rng, monkeypatch, debug_log):
        column = autocorrelation_column(rng, 64)
        rhs = rng.standard_normal((1, 64))
        exact = linalg._levinson
        monkeypatch.setattr(linalg, "_levinson", lambda c, b: exact(c, b) * (1.0 + 1e-6))
        x = solve_spd(column, rhs)
        np.testing.assert_array_equal(x, dense_answer(column, rhs))
        rejected, cholesky = messages(debug_log)
        assert rejected.startswith("solve_spd: Levinson rejected (n=64, backward error")
        assert cholesky.startswith("solve_spd: Cholesky (n=64, rank 64, backward error")

    def test_non_finite_levinson_falls_back(self, rng, monkeypatch, debug_log):
        column = autocorrelation_column(rng, 8)
        rhs = rng.standard_normal((1, 8))
        monkeypatch.setattr(linalg, "_levinson", lambda c, b: np.full(8, np.inf))
        np.testing.assert_array_equal(solve_spd(column, rhs), dense_answer(column, rhs))
        assert messages(debug_log)[0].startswith(
            "solve_spd: Levinson rejected (n=8, backward error nan >")

    def test_singular_matrix_solves_at_rank_one(self, debug_log):
        # [[1, 1], [1, 1]]: Levinson hits a zero pivot; pivoted Cholesky finds
        # rank 1 and solves on one pivot.
        gram, rhs = np.ones((2, 1, 1)), np.ones((1, 2))
        x = solve_spd(gram, rhs)
        np.testing.assert_array_equal(np.sort(x.ravel()), [0.0, 1.0])
        assert linalg._backward_error(gram, rhs, x) <= linalg._levinson_bound(2)
        failed, cholesky = messages(debug_log)
        assert failed.startswith("solve_spd: Levinson failed (n=2")
        assert cholesky.startswith("solve_spd: Cholesky (n=2, rank 1, backward error")

    def test_bare_column_rejected(self, rng):
        with pytest.raises(ValueError, match="got 1-D"):
            solve_spd(autocorrelation_column(rng, 8)[:, 0, 0], rng.standard_normal(8))
        with pytest.raises(ValueError, match="got 2-D"):  # a plain matrix is gram[None]
            solve_spd(np.eye(2), np.ones(2))


def hard_signal(kind, length=4000):
    """A signal whose autocorrelation gives an ill-conditioned Toeplitz Gram matrix."""
    rng = np.random.default_rng(11)
    if kind == "white":
        return rng.standard_normal(length)
    if kind == "ar1":  # x[t] = 0.99 x[t-1] + noise
        x = rng.standard_normal(length)
        for t in range(1, length):
            x[t] += 0.99 * x[t - 1]
        return x
    if kind == "sine":
        return np.sin(0.17 * np.arange(length)) + 1e-6 * rng.standard_normal(length)
    speech = speech_like(length / 16000, 16000, 3).samples
    if kind == "speech":
        return speech
    spec = np.fft.rfft(speech)  # "lowpass": nothing above 1 kHz
    spec[np.fft.rfftfreq(length, 1 / 16000) > 1000] = 0
    return np.fft.irfft(spec, length)


class TestToeplitzOracle:
    """The single-source solver against an in-test dense Cholesky solve."""

    @pytest.mark.parametrize("taps", [1, 2, 17, 64, 512])
    @pytest.mark.parametrize("kind", ["white", "speech", "lowpass", "ar1", "sine"])
    def test_accepted_without_fallback(self, kind, taps, debug_log):
        x = hard_signal(kind)
        column = np.correlate(x, x, mode="full")[x.size - 1:x.size - 1 + taps]
        gram = scipy.linalg.toeplitz(column)
        # As in fir_project: the estimate is a filtered reference, rhs = T h.
        # This rhs lies mostly along T's large eigenvalues, where an answer
        # off by a relative cond(T) u shows in full in the backward error.
        rhs = gram @ np.random.default_rng(taps).standard_normal(taps)
        got = solve_spd(column[:, None, None], rhs[None])[0]
        (msg,) = messages(debug_log)
        assert msg.startswith(f"solve_spd: Levinson (n={taps}, backward error")

        backward = np.linalg.norm(rhs - gram @ got) / (
            np.linalg.norm(gram) * np.linalg.norm(got) + np.linalg.norm(rhs))
        assert backward <= linalg._levinson_bound(taps)
        want = cholesky_answer(gram, rhs)
        # Both answers are backward stable, so they differ by at most cond * u.
        tol = 16 * np.linalg.cond(gram) * np.finfo(np.float64).eps
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    def test_factor_reused_bit_for_bit(self, rng):
        column = autocorrelation_column(rng, 64)
        a, b = rng.standard_normal((2, 1, 64))
        linalg._factor = None
        cold = solve_spd(column, b)
        factor = linalg._factor
        assert factor is not None
        solve_spd(column.copy(), a)
        hit = solve_spd(column.copy(), b)
        assert linalg._factor is factor
        np.testing.assert_array_equal(hit, cold)

    def test_factor_is_a_private_copy_replaced_on_change(self, rng):
        column = autocorrelation_column(rng, 16)
        rhs = rng.standard_normal((1, 16))
        solve_spd(column, rhs)
        key = linalg._factor[0]
        assert np.array_equal(key, column[:, 0, 0]) and not key.flags.writeable
        column[3] *= 1.0 + 1e-12
        solve_spd(column, rhs)
        assert linalg._factor[0] is not key
        assert np.array_equal(linalg._factor[0], column[:, 0, 0])


def six_fft_gohberg_semencul(x, b, n_fft):
    """``T^-1 b`` by the unstacked Gohberg-Semencul formula: six FFTs, one signal each."""
    p = b.size
    x_spec = np.fft.rfft(x, n_fft)
    w_spec = np.fft.rfft(np.concatenate(([0.0], x[:0:-1])), n_fft)
    b_spec = np.fft.rfft(b[::-1], n_fft)
    u = np.fft.irfft(x_spec * b_spec, n_fft)[p - 1::-1]
    v = np.fft.irfft(w_spec * b_spec, n_fft)[p - 1::-1]
    return np.fft.irfft(x_spec * np.fft.rfft(u, n_fft) - w_spec * np.fft.rfft(v, n_fft),
                        n_fft)[:p] / x[0]


@pytest.mark.parametrize("taps", [1, 2, 17, 512, 4096])
def test_stacked_gohberg_semencul_matches_six_ffts(rng, taps):
    column = autocorrelation_column(rng, taps, length=5000)
    rhs = rng.standard_normal((1, taps))
    linalg._factor = None
    solve_spd(column, rhs)
    factor = linalg._factor
    _, n_fft, xw_spec, x0 = factor
    assert xw_spec.shape == (2, n_fft // 2 + 1) and not xw_spec.flags.writeable
    x = linalg._durbin(column[:, 0, 0])
    for b in (rhs[0], rng.standard_normal(taps)):
        assert np.array_equal(linalg._gohberg_semencul(factor, b),
                              six_fft_gohberg_semencul(x, b, n_fft))


def test_next_fast_len_matches_scipy():
    got = [linalg._next_fast_len(n) for n in range(1, 100001)]
    assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 100001)]


def delay_gram(sources, taps):
    """Explicit Gram matrix of every source delayed by 0..taps-1, source-major."""
    length = sources.shape[1]
    columns = np.zeros((length + taps - 1, len(sources) * taps))
    for i, src in enumerate(sources):
        for d in range(taps):
            columns[d:d + length, i * taps + d] = src
    return columns.T @ columns


def first_block_row(gram, m, taps):
    """``blocks[d][i, j]``: source ``i`` undelayed against source ``j`` delayed by ``d``."""
    return np.stack([gram[::taps, d::taps][:m, :m] for d in range(taps)])


def dense_block_answer(blocks, rhs):
    m = blocks.shape[1]
    gram = np.block([[scipy.linalg.toeplitz(blocks[:, j, i], blocks[:, i, j])
                      for j in range(m)] for i in range(m)])
    return cholesky_answer(gram, rhs.ravel()).reshape(rhs.shape)


class TestBlockToeplitzPath:
    @pytest.fixture()
    def system(self, rng):
        def make(m, taps):
            gram = delay_gram(rng.standard_normal((m, 300)), taps)
            return gram, first_block_row(gram, m, taps), rng.standard_normal((m, taps))
        return make

    @pytest.mark.parametrize("taps", [1, 2, 17, 64])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_dense_solve(self, system, m, taps, debug_log):
        gram, blocks, rhs = system(m, taps)
        x = solve_spd(blocks, rhs)
        assert x.shape == (m, taps)
        np.testing.assert_allclose(x.ravel(), np.linalg.solve(gram, rhs.ravel()),
                                   rtol=1e-9, atol=1e-12 * np.abs(x).max())
        (msg,) = messages(debug_log)
        what = "Levinson" if m == 1 else "block Levinson"
        assert msg.startswith(f"solve_spd: {what} (n={m * taps}, backward error")

    def test_rejected_answer_falls_back_to_dense(self, system, monkeypatch, debug_log):
        _, blocks, rhs = system(3, 32)
        exact = linalg._block_levinson
        monkeypatch.setattr(linalg, "_block_levinson",
                            lambda b, r: exact(b, r) * (1.0 + 1e-6))
        x = solve_spd(blocks, rhs)
        np.testing.assert_array_equal(x, dense_block_answer(blocks, rhs))
        rejected, cholesky = messages(debug_log)
        assert rejected.startswith("solve_spd: block Levinson rejected (n=96, backward error")
        assert cholesky.startswith("solve_spd: Cholesky (n=96, rank 96, backward error")

    @pytest.mark.parametrize("broken, logged", [
        (np.linalg.LinAlgError("disabled"), "solve_spd: block Levinson failed (n=40: disabled)"),
        (np.full((2, 20), np.nan), "solve_spd: block Levinson rejected (n=40, backward error nan"),
    ])
    def test_failed_recursion_falls_back_to_dense(self, system, monkeypatch, debug_log,
                                                   broken, logged):
        _, blocks, rhs = system(2, 20)

        def recursion(b, r):
            if isinstance(broken, Exception):
                raise broken
            return broken

        monkeypatch.setattr(linalg, "_block_levinson", recursion)
        np.testing.assert_array_equal(solve_spd(blocks, rhs), dense_block_answer(blocks, rhs))
        assert messages(debug_log)[0].startswith(logged)


class TestLogging:
    def test_silent_by_default(self):
        handlers = logging.getLogger("sepmetrics").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
