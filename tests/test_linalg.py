import logging

import numpy as np
import pytest
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
        monkeypatch.setattr(linalg, "_levinson", lambda kept, b: exact(kept, b) * (1.0 + 1e-6))
        x = solve_spd(column, rhs)
        np.testing.assert_array_equal(x, dense_answer(column, rhs))
        rejected, cholesky = messages(debug_log)
        assert rejected.startswith("solve_spd: Levinson rejected (n=64, backward error")
        assert cholesky.startswith("solve_spd: Cholesky (n=64, rank 64, backward error")

    def test_non_finite_levinson_falls_back(self, rng, monkeypatch, debug_log):
        column = autocorrelation_column(rng, 8)
        rhs = rng.standard_normal((1, 8))
        monkeypatch.setattr(linalg, "_levinson", lambda kept, b: np.full((1, 8), np.inf))
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


class TestKeptFactor:
    """A caller-owned one-slot holder keeps one factor, with its circulant spectra."""

    @pytest.mark.parametrize("m", [1, 3])
    def test_factor_reused_bit_for_bit(self, rng, m, debug_log):
        blocks = lag_blocks(rng.standard_normal((m, 400)), 64)
        a, b = rng.standard_normal((2, m, 64))
        kept = [None]
        cold = solve_spd(blocks, b, kept)
        held = kept[0]
        assert held is not None
        solve_spd(blocks, a, kept)
        hit = solve_spd(blocks, b, kept)
        assert kept[0] is held
        np.testing.assert_array_equal(hit, cold)
        np.testing.assert_array_equal(solve_spd(blocks, b), cold)  # no holder: built for the call
        ends = [msg.rsplit(", ", 1)[1] for msg in messages(debug_log)]
        assert ends == ["factor built)", "factor reused)", "factor reused)", "factor built)"]

    @pytest.mark.parametrize("m", [1, 3])
    def test_factor_is_a_private_copy_replaced_on_change(self, rng, m):
        blocks = lag_blocks(rng.standard_normal((m, 400)), 16)
        rhs = rng.standard_normal((m, 16))
        kept = [None]
        solve_spd(blocks, rhs, kept)
        held = key, (_, g_spec, h_spec), circ_spec = kept[0]
        assert np.array_equal(key, blocks) and key is not blocks
        assert not any(a.flags.writeable for a in (key, g_spec, h_spec, circ_spec))
        solve_spd(blocks.copy(), rhs, kept)
        assert kept[0] is held
        blocks[3] *= 1.0 + 1e-12
        solve_spd(blocks, rhs, kept)
        assert kept[0][0] is not key
        assert np.array_equal(kept[0][0], blocks)

    @pytest.mark.parametrize("m", [1, 3])
    def test_holder_for_other_blocks_gives_the_cold_answer(self, rng, m, debug_log):
        old, new = (lag_blocks(rng.standard_normal((m, 400)), 32) for _ in range(2))
        rhs = rng.standard_normal((m, 32))
        want = solve_spd(new, rhs)
        kept = [None]
        solve_spd(old, rhs, kept)
        np.testing.assert_array_equal(solve_spd(new, rhs, kept), want)
        assert np.array_equal(kept[0][0], new)
        ends = [msg.rsplit(", ", 1)[1] for msg in messages(debug_log)]
        assert ends == ["factor built)"] * 3

    def test_failed_recursion_leaves_the_holder_empty(self, debug_log):
        kept = [None]
        for _ in range(2):
            solve_spd(np.ones((2, 1, 1)), np.ones((1, 2)), kept)
            assert kept == [None]
        assert [msg.split(" (")[0] for msg in messages(debug_log)] == [
            "solve_spd: Levinson failed", "solve_spd: Cholesky"] * 2

    def test_interleaved_solves_match_their_cold_solves(self, rng):
        blocks = {1: lag_blocks(rng.standard_normal((1, 400)), 32),
                  3: lag_blocks(rng.standard_normal((3, 400)), 32)}
        rhs = {m: rng.standard_normal((m, 32)) for m in blocks}
        want = {m: solve_spd(blocks[m], rhs[m]) for m in blocks}
        holders, shared = {m: [None] for m in blocks}, [None]
        for m in (1, 3, 1, 3, 1):
            for kept in (holders[m], shared, None):
                np.testing.assert_array_equal(solve_spd(blocks[m], rhs[m], kept), want[m])
        assert all(h[0] is not None for h in holders.values())
        state = [name for name, value in vars(linalg).items()
                 if not name.startswith("__")
                 and isinstance(value, (np.ndarray, tuple, list, dict))]
        assert state == []

    def test_circulant_transformed_once_per_factor(self, rng, monkeypatch, debug_log):
        transforms = []
        exact = linalg._circulant
        monkeypatch.setattr(linalg, "_circulant", lambda b: transforms.append(b) or exact(b))
        solve_spd(lag_blocks(rng.standard_normal((3, 400)), 32), rng.standard_normal((3, 32)))
        assert len(transforms) == 1  # both refinement steps and the check use the factor's spectra
        column = autocorrelation_column(rng, 32)
        kept = [None]
        solve_spd(column, rng.standard_normal((1, 32)), kept)
        transforms.clear()
        solve_spd(column, rng.standard_normal((1, 32)), kept)
        assert transforms == []  # the held factor's spectra
        solve_spd(np.ones((2, 1, 1)), np.ones((1, 2)))  # no factor: the dense check builds them
        assert len(transforms) == 1
        assert messages(debug_log)[-2].startswith("solve_spd: Levinson failed (n=2")


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
def test_block_formula_on_scalar_factor_matches_six_ffts(rng, taps):
    column = autocorrelation_column(rng, taps, length=5000)[:, 0, 0]
    factor = n_fft, g_spec, h_spec = linalg._durbin(column)
    assert g_spec.shape == h_spec.shape == (2, 1, 1, n_fft // 2 + 1)
    assert n_fft & (n_fft - 1) == 0 and n_fft // 2 < 2 * taps - 1 <= n_fft  # smallest 2^k
    # T^-1 e_1 = a / P: a from alpha's spectrum, 1/P from h = g / P (as -h / g for beta)
    a = np.fft.irfft(g_spec[0, 0, 0], n_fft)[:taps]
    f = np.argmax(np.abs(g_spec[0, 0, 0]))
    x = a * (h_spec[0, 0, 0, f] / g_spec[0, 0, 0, f]).real
    np.testing.assert_allclose(-h_spec[1], g_spec[1] * x[0], rtol=1e-14, atol=0)
    for b in rng.standard_normal((2, taps)):
        want = six_fft_gohberg_semencul(x, b, n_fft)
        got = linalg._block_gohberg_semencul(factor, b[None])[0]
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


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


def dense_block_toeplitz(blocks):
    """The source-major Gram matrix that ``solve_spd``'s lag blocks stand for."""
    m = blocks.shape[1]
    return np.block([[scipy.linalg.toeplitz(blocks[:, j, i], blocks[:, i, j])
                      for j in range(m)] for i in range(m)])


def dense_block_answer(blocks, rhs):
    return cholesky_answer(dense_block_toeplitz(blocks), rhs.ravel()).reshape(rhs.shape)


def predictors(blocks):
    """``A``, ``B`` (each ``(m, m, p)``, delay last) recovered from ``_block_durbin``'s spectra."""
    p, m, _ = blocks.shape
    n_fft, g_spec, _ = linalg._block_durbin(blocks)
    gen = np.fft.irfft(g_spec, n_fft)[..., :p]
    b = np.concatenate((gen[1, :, :, 1:], np.eye(m)[:, :, None]), axis=2)  # B_{p-1} = I
    return gen[0], b


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

    @pytest.mark.parametrize("taps", [1, 2, 17, 64])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_predictor_identities(self, system, m, taps):
        # A T = [Pf, 0, ..., 0] and B T = [0, ..., 0, Pb], T taken delay-major.
        _, blocks, _ = system(m, taps)
        dense = dense_block_toeplitz(blocks).reshape(m, taps, m, taps)
        delay_major = dense.transpose(1, 0, 3, 2).reshape(m * taps, m * taps)
        a, b = predictors(blocks)
        np.testing.assert_allclose(a[:, :, 0], np.eye(m), rtol=0, atol=1e-14)  # A_0 = I
        for pred, keep in ((a, 0), (b, taps - 1)):
            rows = pred.transpose(0, 2, 1).reshape(m, m * taps)  # [P_0, ..., P_{p-1}]
            prod = (rows @ delay_major).reshape(m, taps, m)
            scale = np.linalg.norm(rows) * np.linalg.norm(delay_major)
            err = prod[:, keep]
            np.testing.assert_allclose(err, err.T, rtol=0, atol=1e-14 * scale)
            assert np.linalg.eigvalsh(err).min() > 0
            assert np.linalg.norm(np.delete(prod, keep, axis=1)) <= 1e-13 * scale

    @pytest.mark.parametrize("m, taps", [(1, 17), (2, 1), (3, 17), (4, 64)])
    def test_one_factor_serves_several_right_hand_sides(self, system, rng, m, taps):
        gram, blocks, _ = system(m, taps)
        factor = linalg._durbin(blocks[:, 0, 0]) if m == 1 else linalg._block_durbin(blocks)
        for rhs in rng.standard_normal((3, m, taps)):
            np.testing.assert_allclose(linalg._block_gohberg_semencul(factor, rhs).ravel(),
                                       np.linalg.solve(gram, rhs.ravel()), rtol=1e-9, atol=0)

    def test_rejected_answer_falls_back_to_dense(self, system, monkeypatch, debug_log):
        _, blocks, rhs = system(3, 32)
        exact = linalg._levinson
        monkeypatch.setattr(linalg, "_levinson", lambda kept, r: exact(kept, r) * (1.0 + 1e-6))
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

        def recursion(kept, r):
            if isinstance(broken, Exception):
                raise broken
            return broken

        monkeypatch.setattr(linalg, "_levinson", recursion)
        np.testing.assert_array_equal(solve_spd(blocks, rhs), dense_block_answer(blocks, rhs))
        assert messages(debug_log)[0].startswith(logged)


def lag_blocks(sources, taps):
    """``blocks[d][i, j]``: source ``i`` against source ``j`` delayed by ``d``."""
    length = sources.shape[1]
    return np.stack([np.einsum("in,jn->ij", sources[:, d:], sources[:, :length - d])
                     for d in range(taps)])


class TestBlockToeplitzOracle:
    """The multi-source solver against an in-test dense Cholesky solve."""

    @pytest.mark.parametrize("taps", [17, 128, 512])
    @pytest.mark.parametrize("kinds", [("lowpass", "speech"), ("speech", "ar1", "white"),
                                       ("lowpass", "ar1", "sine"), ("lowpass", "ar1"),
                                       ("sine", "lowpass")], ids="-".join)
    def test_accepted_without_fallback(self, kinds, taps, debug_log):
        blocks = lag_blocks(np.stack([hard_signal(kind) for kind in kinds]), taps)
        gram = dense_block_toeplitz(blocks)
        n = gram.shape[0]
        # As in fir_project: the estimate is filtered sources, rhs = T h.
        rhs = gram @ np.random.default_rng(taps).standard_normal(n)
        got = solve_spd(blocks, rhs.reshape(len(kinds), taps)).ravel()
        (msg,) = messages(debug_log)
        assert msg.startswith(f"solve_spd: block Levinson (n={n}, backward error")

        backward = np.linalg.norm(rhs - gram @ got) / (
            np.linalg.norm(gram) * np.linalg.norm(got) + np.linalg.norm(rhs))
        assert backward <= linalg._levinson_bound(n)
        want = cholesky_answer(gram, rhs)
        eig = np.abs(np.linalg.eigvalsh(gram))  # T is symmetric: cond(T) = max |eig| / min |eig|
        tol = 16 * eig.max() / eig.min() * np.finfo(np.float64).eps
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


class TestLogging:
    def test_silent_by_default(self):
        handlers = logging.getLogger("sepmetrics").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
