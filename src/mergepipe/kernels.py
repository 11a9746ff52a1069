"""Hot numeric kernels, numba-compiled when it actually pays.

Two inner loops dominate pipeline runtime: masked pairwise distances for
neighbour imputation, and LSTM forward/backward sweeps over 121-step
sequences.  The masked distance has one build, the BLAS-backed gram-trick
formulation in numpy: a compiled loop lost to it at every realistic shape.
``_masked_sqdist_loops`` stays as the plain-loop reference the tests
compare it against.  The LSTM sweep carries a numba ``@njit`` build and a
pure-numpy build, both importable (``*_numba`` / ``*_numpy``) for parity
tests and ``benchmarks/bench_kernels.py``; the numba build wins ~2.5x at
the small batches training uses and roughly ties at batch 64, so it is the
default when available.  Set ``MERGEPIPE_NUMBA=0`` to force pure numpy
everywhere (the guaranteed fallback path).
"""

from __future__ import annotations

import os

import numpy as np


def numba_requested(env_value: str | None) -> bool:
    """Interpret the MERGEPIPE_NUMBA env value (unset/empty means on)."""
    if env_value is None:
        return True
    return env_value.strip().lower() not in ("0", "false", "no", "off")


_WANT_NUMBA = numba_requested(os.environ.get("MERGEPIPE_NUMBA"))
NUMBA_AVAILABLE = False
if _WANT_NUMBA:
    try:
        from numba import njit as _njit

        NUMBA_AVAILABLE = True
    except ImportError:
        NUMBA_AVAILABLE = False

NUMBA_ENABLED = _WANT_NUMBA and NUMBA_AVAILABLE


# -- masked pairwise squared distance ---------------------------------------
#
# Partial-distance metric over jointly observed coordinates:
#   d2[i, j] = (D / d_ij) * sum_k m_q[i,k] m_r[j,k] ((q[i,k]-r[j,k]) * w[k])^2
# where d_ij = #jointly observed coordinates and D = total column count.
# Pairs with d_ij = 0 get +inf.


def _masked_sqdist_loops(qv, qm, rv, rm, inv_scale, total_cols):
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
            if shared > 0:
                out[i, j] = acc * (total_cols / shared)
            else:
                out[i, j] = np.inf
    return out


def masked_sqdist_numpy(qv, qm, rv, rm, inv_scale, total_cols, block=512):
    """Vectorized build: d2 = A2q.Mr' - 2 Aq.Ar' + Mq.A2r', chunked over rows."""
    mq = qm.astype(np.float64)
    mr = rm.astype(np.float64)
    aq = np.where(qm, qv * inv_scale, 0.0)
    ar = np.where(rm, rv * inv_scale, 0.0)
    a2r = ar * ar
    out = np.empty((qv.shape[0], rv.shape[0]), dtype=np.float64)
    for start in range(0, qv.shape[0], block):
        stop = min(start + block, qv.shape[0])
        aqb = aq[start:stop]
        mqb = mq[start:stop]
        d2 = (aqb * aqb) @ mr.T - 2.0 * (aqb @ ar.T) + mqb @ a2r.T
        np.maximum(d2, 0.0, out=d2)
        shared = mqb @ mr.T
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = d2 * (total_cols / shared)
        d2[shared == 0.0] = np.inf
        out[start:stop] = d2
    return out


# -- LSTM sequence forward / backward ----------------------------------------
#
# Gate layout along the 4H axis: [input | forget | candidate | output].
# ``sigmoid_candidate`` switches the candidate/cell-output transform from
# tanh to sigmoid (the autoencoder variant); gates always use sigmoid.


def _lstm_forward_impl(x, wx, wh, b, h0, c0, sigmoid_candidate):
    seq_len, batch, _ = x.shape
    hidden = wh.shape[0]
    hs = np.empty((seq_len + 1, batch, hidden), dtype=np.float64)
    cs = np.empty((seq_len + 1, batch, hidden), dtype=np.float64)
    zs = np.empty((seq_len, batch, 4 * hidden), dtype=np.float64)
    hs[0] = h0
    cs[0] = c0
    for t in range(seq_len):
        z = np.dot(x[t], wx) + np.dot(hs[t], wh) + b
        ez = np.exp(-np.abs(z))
        sig = np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        i_g = sig[:, :hidden]
        f_g = sig[:, hidden : 2 * hidden]
        o_g = sig[:, 3 * hidden :]
        if sigmoid_candidate:
            cand = sig[:, 2 * hidden : 3 * hidden]
        else:
            cand = np.tanh(z[:, 2 * hidden : 3 * hidden])
        c_t = f_g * cs[t] + i_g * cand
        if sigmoid_candidate:
            ec = np.exp(-np.abs(c_t))
            tc = np.where(c_t >= 0.0, 1.0 / (1.0 + ec), ec / (1.0 + ec))
        else:
            tc = np.tanh(c_t)
        zs[t] = z
        cs[t + 1] = c_t
        hs[t + 1] = o_g * tc
    return hs, cs, zs


def _lstm_backward_impl(x, wx, wh, hs, cs, zs, dh_all, sigmoid_candidate):
    seq_len, batch, in_dim = x.shape
    hidden = wh.shape[0]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * hidden, dtype=np.float64)
    dx = np.empty((seq_len, batch, in_dim), dtype=np.float64)
    wx_t = np.ascontiguousarray(wx.T)
    wh_t = np.ascontiguousarray(wh.T)
    dh = np.zeros((batch, hidden), dtype=np.float64)
    dc = np.zeros((batch, hidden), dtype=np.float64)
    for t in range(seq_len - 1, -1, -1):
        dh = dh + dh_all[t]
        z = zs[t]
        ez = np.exp(-np.abs(z))
        sig = np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        i_g = sig[:, :hidden]
        f_g = sig[:, hidden : 2 * hidden]
        o_g = sig[:, 3 * hidden :]
        if sigmoid_candidate:
            cand = sig[:, 2 * hidden : 3 * hidden]
            dcand = cand * (1.0 - cand)
            ec = np.exp(-np.abs(cs[t + 1]))
            tc = np.where(cs[t + 1] >= 0.0, 1.0 / (1.0 + ec), ec / (1.0 + ec))
            dtc = tc * (1.0 - tc)
        else:
            cand = np.tanh(z[:, 2 * hidden : 3 * hidden])
            dcand = 1.0 - cand * cand
            tc = np.tanh(cs[t + 1])
            dtc = 1.0 - tc * tc
        d_o = dh * tc
        dct = dc + dh * o_g * dtc
        d_i = dct * cand
        d_f = dct * cs[t]
        d_g = dct * i_g
        dz = np.empty((batch, 4 * hidden), dtype=np.float64)
        dz[:, :hidden] = d_i * i_g * (1.0 - i_g)
        dz[:, hidden : 2 * hidden] = d_f * f_g * (1.0 - f_g)
        dz[:, 2 * hidden : 3 * hidden] = d_g * dcand
        dz[:, 3 * hidden :] = d_o * o_g * (1.0 - o_g)
        dwx += np.dot(np.ascontiguousarray(x[t].T), dz)
        dwh += np.dot(np.ascontiguousarray(hs[t].T), dz)
        db += dz.sum(axis=0)
        dx[t] = np.dot(dz, wx_t)
        dh = np.dot(dz, wh_t)
        dc = dct * f_g
    return dwx, dwh, db, dx, dh, dc


lstm_forward_numpy = _lstm_forward_impl
lstm_backward_numpy = _lstm_backward_impl

if NUMBA_AVAILABLE:
    lstm_forward_numba = _njit(cache=True)(_lstm_forward_impl)
    lstm_backward_numba = _njit(cache=True)(_lstm_backward_impl)
else:
    lstm_forward_numba = None
    lstm_backward_numba = None

masked_sqdist = masked_sqdist_numpy
if NUMBA_ENABLED:
    lstm_forward = lstm_forward_numba
    lstm_backward = lstm_backward_numba
else:
    lstm_forward = lstm_forward_numpy
    lstm_backward = lstm_backward_numpy
