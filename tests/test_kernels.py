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


class TestMaskedSqdist:
    def test_numpy_matches_loop_reference(self):
        for seed in range(6):
            qv, qm, rv, rm, w, cols = random_masked_problem(seed)
            vec = kernels.masked_sqdist(qv, qm, rv, rm, w, cols)
            ref = kernels._masked_sqdist_loops(qv, qm, rv, rm, w, cols)
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
            # the prepared terms, not rv, carry the reference values
            again = kernels.masked_sqdist(
                qv, qm, np.zeros_like(rv), rm, w, cols, reference=reference
            )
            assert np.array_equal(again, expected)


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
