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
            vec = kernels.masked_sqdist_numpy(qv, qm, rv, rm, w, cols)
            ref = kernels._masked_sqdist_loops(qv, qm, rv, rm, w, cols)
            finite = np.isfinite(ref)
            assert (np.isfinite(vec) == finite).all()
            assert np.allclose(vec[finite], ref[finite], atol=1e-10)

    def test_chunking_invariant(self):
        qv, qm, rv, rm, w, cols = random_masked_problem(42, nq=30)
        fine = kernels.masked_sqdist_numpy(qv, qm, rv, rm, w, cols, block=7)
        coarse = kernels.masked_sqdist_numpy(qv, qm, rv, rm, w, cols, block=1000)
        assert np.array_equal(fine, coarse)


def random_lstm_problem(seed, seq=9, batch=4, in_dim=2, hidden=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(seq, batch, in_dim))
    wx = rng.normal(0, 0.4, (in_dim, 4 * hidden))
    wh = rng.normal(0, 0.4, (hidden, 4 * hidden))
    b = rng.normal(0, 0.2, 4 * hidden)
    h0 = np.zeros((batch, hidden))
    dh_all = rng.normal(size=(seq, batch, hidden))
    return x, wx, wh, b, h0, dh_all


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba not installed")
class TestLstmParity:
    @pytest.mark.parametrize("sigmoid_candidate", [False, True])
    def test_forward_backward_match(self, sigmoid_candidate):
        x, wx, wh, b, h0, dh_all = random_lstm_problem(3)
        out_np = kernels.lstm_forward_numpy(x, wx, wh, b, h0, h0.copy(), sigmoid_candidate)
        out_nb = kernels.lstm_forward_numba(x, wx, wh, b, h0, h0.copy(), sigmoid_candidate)
        for a, c in zip(out_np, out_nb):
            assert np.allclose(a, c, atol=1e-13)
        hs, cs, zs = out_np
        g_np = kernels.lstm_backward_numpy(x, wx, wh, hs, cs, zs, dh_all, sigmoid_candidate)
        g_nb = kernels.lstm_backward_numba(x, wx, wh, hs, cs, zs, dh_all, sigmoid_candidate)
        for a, c in zip(g_np, g_nb):
            assert np.allclose(a, c, atol=1e-13)


class TestSelection:
    def test_env_flag_parsing(self):
        assert kernels.numba_requested(None)
        assert kernels.numba_requested("1")
        assert kernels.numba_requested("")
        assert not kernels.numba_requested("0")
        assert not kernels.numba_requested("false")
        assert not kernels.numba_requested("OFF")

    def test_active_path_consistent(self):
        # masked distances always ride the BLAS formulation; the LSTM sweep
        # takes the compiled build when the flag allows it
        assert kernels.masked_sqdist is kernels.masked_sqdist_numpy
        if kernels.NUMBA_ENABLED:
            assert kernels.lstm_forward is kernels.lstm_forward_numba
            assert kernels.lstm_backward is kernels.lstm_backward_numba
        else:
            assert kernels.lstm_forward is kernels.lstm_forward_numpy
            assert kernels.lstm_backward is kernels.lstm_backward_numpy
