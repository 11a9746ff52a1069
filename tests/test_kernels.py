import numpy as np
import pytest

from mergepipe import kernels


def random_masked_problem(seed, nq=11, nr=13, cols=6):
    rng = np.random.default_rng(seed)
    qv = rng.normal(size=(nq, cols))
    rv = rng.normal(size=(nr, cols))
    qm = rng.random((nq, cols)) > 0.35
    rm = rng.random((nr, cols)) > 0.35
    inv_scale = 1.0 / (0.5 + rng.random(cols))
    return qv, qm, rv, rm, inv_scale, cols


def _masked_sqdist_loops(qv, qm, rv, rm, inv_scale, total_cols):
    """Plain-loop partial distance over jointly observed coordinates:
    d2[i, j] = (D / d_ij) * sum_k ((q[i,k] - r[j,k]) * w[k])^2, +inf where
    no coordinate is shared."""
    nq, ncols = qv.shape
    nr = rv.shape[0]
    out = np.empty((nq, nr), dtype=np.float64)
    for i in range(nq):
        for j in range(nr):
            acc = 0.0
            shared = 0
            for k in range(ncols):
                if qm[i, k] and rm[j, k]:
                    diff = (qv[i, k] - rv[j, k]) * inv_scale[k]
                    acc += diff * diff
                    shared += 1
            out[i, j] = acc * (total_cols / shared) if shared > 0 else np.inf
    return out


class TestMaskedSqdist:
    def test_numpy_matches_loop_reference(self):
        for seed in range(6):
            qv, qm, rv, rm, w, cols = random_masked_problem(seed)
            vec = kernels.masked_sqdist(qv, qm, rv, rm, w, cols)
            ref = _masked_sqdist_loops(qv, qm, rv, rm, w, cols)
            finite = np.isfinite(ref)
            assert (np.isfinite(vec) == finite).all()
            assert np.allclose(vec[finite], ref[finite], atol=1e-10)

    def test_prepared_reference_is_bit_identical(self):
        for seed in range(4):
            qv, qm, rv, rm, w, cols = random_masked_problem(seed, nq=40, nr=25)
            rm[:, 2] = False  # a column no reference observes
            rm[3] = False  # a reference sharing nothing: an +inf column of d2
            qm[5] = False  # a query sharing nothing: an +inf row
            qm[6, :] = False
            qm[6, 2] = True  # observed only where no reference is
            expected = kernels.masked_sqdist(qv, qm, rv, rm, w, cols)
            reference = kernels.prepare_reference(rv, rm, w)
            got = kernels.masked_sqdist(qv, qm, rv, rm, w, cols, reference=reference)
            assert np.array_equal(got, expected)
            assert np.isinf(got[5]).all() and np.isinf(got[6]).all()
            assert np.isinf(got[:, 3]).all()
            # the prepared block, not rv or rm, carries the reference side
            again = kernels.masked_sqdist(
                qv, qm, np.zeros_like(rv), np.ones_like(rm), w, cols, reference=reference
            )
            assert np.array_equal(again, expected)

    def test_reference_is_one_packed_block(self):
        qv, qm, rv, rm, w, cols = random_masked_problem(0, nr=25)
        block = kernels.prepare_reference(rv, rm, w)
        assert block.shape == (3 * cols, 25) and block.dtype == np.float64
        assert block.flags.c_contiguous
        scaled = np.where(rm, rv * w, 0.0)
        assert np.array_equal(block[:cols], rm.T.astype(np.float64))
        assert np.array_equal(block[cols : 2 * cols], scaled.T)
        assert np.array_equal(block[2 * cols :], (scaled * scaled).T)


class TestSearchRows:
    def test_block_of_distance_rows_fits_the_budget(self):
        # score-stream's 64-deal requests against 4000 references: one block
        assert kernels.search_rows(4000) == 65
        for n_ref in (1, 7, 240, 4000, 20_000, 10**6):
            rows = kernels.search_rows(n_ref)
            assert rows >= 1
            assert rows == 1 or 8 * rows * n_ref <= kernels.SEARCH_BYTES
            assert 8 * (rows + 1) * n_ref > kernels.SEARCH_BYTES


def random_lstm_problem(seed, seq=9, batch=4, in_dim=2, hidden=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(seq, batch, in_dim))
    wx = rng.normal(0, 0.4, (in_dim, 4 * hidden))
    wh = rng.normal(0, 0.4, (hidden, 4 * hidden))
    b = rng.normal(0, 0.2, 4 * hidden)
    h0 = rng.normal(0, 0.5, (batch, hidden))
    c0 = rng.normal(0, 0.5, (batch, hidden))
    dh_all = rng.normal(size=(seq, batch, hidden))
    return x, wx, wh, b, h0, c0, dh_all


def _sigmoid_loops(z):
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _lstm_loops(x, wx, wh, b, h0, c0, dh_all, sigmoid_candidate):
    """Per-step reference: forward keeps the pre-activations z, backward
    recomputes every activation from them and accumulates the weight
    gradients step by step.  Returns (hs, cs, dwx, dwh, db, dh0, dc0)."""
    seq_len, batch, _ = x.shape
    hidden = wh.shape[0]
    hs = np.empty((seq_len + 1, batch, hidden))
    cs = np.empty((seq_len + 1, batch, hidden))
    zs = np.empty((seq_len, batch, 4 * hidden))
    hs[0], cs[0] = h0, c0
    cell = _sigmoid_loops if sigmoid_candidate else np.tanh
    for t in range(seq_len):
        z = zs[t] = x[t] @ wx + hs[t] @ wh + b
        sig = _sigmoid_loops(z)
        cand = cell(z[:, 2 * hidden : 3 * hidden])
        cs[t + 1] = sig[:, hidden : 2 * hidden] * cs[t] + sig[:, :hidden] * cand
        hs[t + 1] = sig[:, 3 * hidden :] * cell(cs[t + 1])
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
    dh = np.zeros((batch, hidden))
    dc = np.zeros((batch, hidden))
    for t in range(seq_len - 1, -1, -1):
        dh = dh + dh_all[t]
        sig = _sigmoid_loops(zs[t])
        i_g, f_g, o_g = sig[:, :hidden], sig[:, hidden : 2 * hidden], sig[:, 3 * hidden :]
        cand = cell(zs[t][:, 2 * hidden : 3 * hidden])
        tc = cell(cs[t + 1])
        if sigmoid_candidate:
            dcand, dtc = cand * (1.0 - cand), tc * (1.0 - tc)
        else:
            dcand, dtc = 1.0 - cand * cand, 1.0 - tc * tc
        dct = dc + dh * o_g * dtc
        dz = np.concatenate([
            dct * cand * i_g * (1.0 - i_g),
            dct * cs[t] * f_g * (1.0 - f_g),
            dct * i_g * dcand,
            dh * tc * o_g * (1.0 - o_g),
        ], axis=1)
        dwx += x[t].T @ dz
        dwh += hs[t].T @ dz
        db += dz.sum(axis=0)
        dh = dz @ wh.T
        dc = dct * f_g
    return hs, cs, dwx, dwh, db, dh, dc


class TestLstmNumpy:
    """The LSTM kernels against the per-step reference and finite
    differences, called positionally as the benchmark calls them."""

    @pytest.mark.parametrize("sigmoid_candidate", [False, True])
    @pytest.mark.parametrize("in_dim", [1, 2])
    @pytest.mark.parametrize("seq", [1, 9, 121])
    def test_matches_loop_reference(self, seq, in_dim, sigmoid_candidate):
        x, wx, wh, b, h0, c0, dh_all = random_lstm_problem(seq + in_dim, seq=seq, in_dim=in_dim)
        ref = _lstm_loops(x, wx, wh, b, h0, c0, dh_all, sigmoid_candidate)
        hs, cs, cache = kernels.lstm_forward(x, wx, wh, b, h0, c0, sigmoid_candidate)
        grads = kernels.lstm_backward(x, wx, wh, hs, cs, cache, dh_all, sigmoid_candidate)
        assert len(grads) == 5  # dwx, dwh, db, dh0, dc0: no input gradient
        for got, want in zip((hs, cs) + tuple(grads), ref):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sigmoid_candidate", [False, True])
    def test_encoder_gradient_at_last_step_only(self, sigmoid_candidate):
        # the autoencoder's encoder and the classifier's LSTM branch read
        # only the last hidden state; batch 1 is a single scored deal
        x, wx, wh, b, h0, c0, dh_all = random_lstm_problem(5, seq=121, batch=1, in_dim=1)
        dh_all[:-1] = 0.0
        ref = _lstm_loops(x, wx, wh, b, h0, c0, dh_all, sigmoid_candidate)
        hs, cs, cache = kernels.lstm_forward(x, wx, wh, b, h0, c0, sigmoid_candidate)
        grads = kernels.lstm_backward(x, wx, wh, hs, cs, cache, dh_all, sigmoid_candidate)
        for got, want in zip((hs, cs) + tuple(grads), ref):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sigmoid_candidate", [False, True])
    def test_sweep_equals_chained_single_steps(self, sigmoid_candidate):
        x, wx, wh, b, h0, c0, _ = random_lstm_problem(8, seq=12, in_dim=1)
        hs, cs, _ = kernels.lstm_forward(x, wx, wh, b, h0, c0, sigmoid_candidate)
        h, c = h0, c0
        for t in range(x.shape[0]):
            step_hs, step_cs, _ = kernels.lstm_forward(
                x[t : t + 1], wx, wh, b, h, c, sigmoid_candidate
            )
            h, c = step_hs[1], step_cs[1]
            assert np.array_equal(h, hs[t + 1]) and np.array_equal(c, cs[t + 1])

    @pytest.mark.parametrize("sigmoid_candidate", [False, True])
    def test_backward_matches_finite_differences(self, sigmoid_candidate):
        x, wx, wh, b, h0, c0, dh_all = random_lstm_problem(11, seq=6, batch=3, hidden=3)
        inputs = [wx, wh, b, h0, c0]

        def objective():
            hs, _, _ = kernels.lstm_forward(x, *inputs, sigmoid_candidate)
            return float(np.sum(hs[1:] * dh_all))

        hs, cs, cache = kernels.lstm_forward(x, wx, wh, b, h0, c0, sigmoid_candidate)
        grads = kernels.lstm_backward(x, wx, wh, hs, cs, cache, dh_all, sigmoid_candidate)
        eps = 1e-6
        for array, grad in zip(inputs, grads):
            numeric = np.empty_like(array)
            for idx in np.ndindex(array.shape):
                keep = array[idx]
                array[idx] = keep + eps
                up = objective()
                array[idx] = keep - eps
                down = objective()
                array[idx] = keep
                numeric[idx] = (up - down) / (2 * eps)
            assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-8)
