import logging

import numpy as np
import pytest
import scipy.linalg

from sepmetrics import linalg
from sepmetrics.linalg import solve_spd


def autocorrelation_column(rng, taps, length=400):
    """First column of a well-conditioned SPD Toeplitz Gram matrix, as ``(taps, 1, 1)`` lag blocks."""
    x = rng.standard_normal(length)
    full = np.correlate(x, x, mode="full")
    return full[length - 1:length - 1 + taps, None, None]


def dense_answer(column, rhs):
    cf = scipy.linalg.cho_factor(scipy.linalg.toeplitz(column[:, 0, 0]), lower=True)
    return scipy.linalg.cho_solve(cf, rhs[0])[None]


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
        exact = scipy.linalg.solve_toeplitz

        def perturbed(c, b, check_finite=True):
            return exact(c, b, check_finite=check_finite) * (1.0 + 1e-6)

        monkeypatch.setattr(scipy.linalg, "solve_toeplitz", perturbed)
        x = solve_spd(column, rhs)
        np.testing.assert_array_equal(x, dense_answer(column, rhs))
        rejected, cholesky = messages(debug_log)
        assert rejected.startswith("solve_spd: Levinson rejected (n=64, backward error")
        assert cholesky == "solve_spd: Cholesky (n=64)"

    def test_non_finite_levinson_falls_back(self, rng, monkeypatch, debug_log):
        column = autocorrelation_column(rng, 8)
        rhs = rng.standard_normal((1, 8))
        monkeypatch.setattr(scipy.linalg, "solve_toeplitz",
                            lambda c, b, check_finite=True: np.full(8, np.inf))
        np.testing.assert_array_equal(solve_spd(column, rhs), dense_answer(column, rhs))
        assert "non-finite" in messages(debug_log)[0]

    def test_singular_minor_goes_to_jitter_retry(self, debug_log):
        # [[1, 1], [1, 1]]: Levinson hits a zero pivot, Cholesky too, the
        # jittered matrix factors.
        x = solve_spd(np.ones((2, 1, 1)), np.ones((1, 2)))
        assert np.all(np.isfinite(x))
        failed, retry = messages(debug_log)
        assert failed.startswith("solve_spd: Levinson failed (n=2")
        assert retry == "solve_spd: Cholesky failed (n=2); jitter retry with 1e-12"

    def test_bare_column_rejected(self, rng):
        with pytest.raises(ValueError, match="got 1-D"):
            solve_spd(autocorrelation_column(rng, 8)[:, 0, 0], rng.standard_normal(8))


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
    cf = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    return scipy.linalg.cho_solve(cf, rhs.ravel(), check_finite=False).reshape(rhs.shape)


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
        assert cholesky == "solve_spd: Cholesky (n=96)"

    @pytest.mark.parametrize("broken, logged", [
        (np.linalg.LinAlgError("disabled"), "solve_spd: block Levinson failed (n=40: disabled)"),
        (np.full((2, 20), np.nan), "solve_spd: block Levinson gave non-finite values (n=40)"),
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
    def test_dense_cholesky_logged(self, debug_log):
        solve_spd(np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2))
        assert messages(debug_log) == ["solve_spd: Cholesky (n=2)"]

    def test_dense_jitter_retry_logged(self, debug_log):
        solve_spd(np.ones((2, 2)), np.ones(2))
        assert messages(debug_log) == [
            "solve_spd: Cholesky failed (n=2); jitter retry with 1e-12"]

    def test_silent_by_default(self):
        handlers = logging.getLogger("sepmetrics").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
