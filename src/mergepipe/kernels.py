"""Hot numeric kernels: masked pairwise distances and LSTM sweeps.

Two inner loops dominate pipeline runtime: masked pairwise distances for
neighbour imputation, and LSTM forward/backward sweeps over 121-step
sequences.  Each kernel has one numpy build.  The masked distance is the
BLAS-backed gram-trick formulation, computed in one pass over the query rows
it is given; the caller bounds their number.  Its reference-side terms
(float mask, scaled zero-filled values and their square) depend only on the
references, so ``prepare_reference`` builds them once and a caller that
scores many query sets, like the imputer, passes them in; that costs about
3 x n_ref x D extra floats.  ``_masked_sqdist_loops`` stays as the
plain-loop reference the tests compare it against.  The LSTM sweep keeps
only the recurrence in its time loop: forward hoists the input projection
into one GEMM and caches the gate activations, backward reads that cache
and takes the weight gradients as single GEMMs after the loop (see the
section comment below).
"""

from __future__ import annotations

import numpy as np

# no compiled build exists; kept for the benchmark's provenance block
NUMBA_AVAILABLE = NUMBA_ENABLED = False


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


def prepare_reference(rv, rm, inv_scale):
    """Reference-side terms of ``masked_sqdist``: (mask as float, scaled
    zero-filled values, their square), each (n_ref, D)."""
    ar = np.where(rm, rv * inv_scale, 0.0)
    return rm.astype(np.float64), ar, ar * ar


def masked_sqdist(qv, qm, rv, rm, inv_scale, total_cols, reference=None):
    """Gram-trick build: d2 = A2q.Mr' - 2 Aq.Ar' + Mq.A2r'.

    ``reference`` is ``prepare_reference(rv, rm, inv_scale)`` computed once
    by a caller that scores many query sets against the same references;
    without it the terms are derived here on every call.
    """
    mr, ar, a2r = prepare_reference(rv, rm, inv_scale) if reference is None else reference
    mq = qm.astype(np.float64)
    aq = np.where(qm, qv * inv_scale, 0.0)
    d2 = (aq * aq) @ mr.T - 2.0 * (aq @ ar.T) + mq @ a2r.T
    np.maximum(d2, 0.0, out=d2)
    shared = mq @ mr.T
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = d2 * (total_cols / shared)
    d2[shared == 0.0] = np.inf
    return d2


masked_sqdist_numpy = masked_sqdist  # older name, still read by perfbench


# -- LSTM sequence forward / backward ----------------------------------------
#
# Gate layout along the 4H axis: [input | forget | candidate | output].
# ``sigmoid_candidate`` switches the candidate/cell-output transform from
# tanh to sigmoid (the autoencoder variant); gates always use sigmoid.
#
# Only the recurrence stays in the time loop.  Forward projects all T*B input
# rows with one GEMM before the loop; each step adds h_{t-1} Wh to its slot
# and turns the slot into gate activations in place, so the projection buffer
# becomes the cache backward reads and backward never evaluates exp or tanh of
# a pre-activation.  Backward derives every gate derivative in one pass over
# T, carries only dh and dc through the loop, and takes dWx, dWh and db after
# it as single GEMMs and one sum over all T*B rows.  Sigmoid is the one-ufunc
# form sigmoid(z) = 0.5 + 0.5 * tanh(z / 2).
#
# Inside the kernels the batch is the innermost axis: the gate cache is
# (4H, T, B), which is what one GEMM of the (4H, in) weights with the
# (in, T*B) inputs gives, and the states are (T+1, H, B).  Every gate block of
# a step is then a run of contiguous rows; strided gate slices of a (B, 4H)
# slab cost about twice as much per numpy call at these sizes.  hs and cs are
# returned as (T+1, B, H) views; the cache only means something to backward.


def lstm_forward(x, wx, wh, b, h0, c0, sigmoid_candidate):
    seq_len, batch, in_dim = x.shape
    hidden = wh.shape[0]
    # act(z) = s * tanh(s * z) + (1 - s): s = 1/2 on sigmoid rows, 1 on a tanh
    # candidate.  s is a power of two, so folding it into the weights gives
    # tanh the same argument as scaling z, bit for bit.
    scale = np.full((4 * hidden, batch), 0.5)
    if not sigmoid_candidate:
        scale[2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - scale
    s = scale[:, :1]
    wh_t = wh.T * s
    gates = np.dot(wx.T * s, x.reshape(seq_len * batch, in_dim).T)
    gates += b.reshape(4 * hidden, 1) * s
    gates = gates.reshape(4 * hidden, seq_len, batch)
    hs = np.empty((seq_len + 1, hidden, batch), dtype=np.float64)
    cs = np.empty((seq_len + 1, hidden, batch), dtype=np.float64)
    g = np.empty((4 * hidden, batch), dtype=np.float64)
    tc = np.empty((hidden, batch), dtype=np.float64)
    hs[0] = h0.T
    cs[0] = c0.T
    for t in range(seq_len):
        # the step's gates are worked on contiguously, then stored as the cache
        np.add(np.dot(wh_t, hs[t]), gates[:, t], g)
        np.tanh(g, g)
        g *= scale
        g += shift
        gates[:, t] = g
        c = cs[t + 1]
        np.multiply(g[hidden : 2 * hidden], cs[t], c)
        c += g[:hidden] * g[2 * hidden : 3 * hidden]
        if sigmoid_candidate:
            np.multiply(c, 0.5, tc)
            np.tanh(tc, tc)
            tc *= 0.5
            tc += 0.5
        else:
            np.tanh(c, tc)
        np.multiply(g[3 * hidden :], tc, hs[t + 1])
    return hs.transpose(0, 2, 1), cs.transpose(0, 2, 1), gates


def lstm_backward(x, wx, wh, hs, cs, gates, dh_all, sigmoid_candidate):
    seq_len, batch, in_dim = x.shape
    hidden = wh.shape[0]
    rows = seq_len * batch
    hs = hs.transpose(0, 2, 1)
    cs = cs.transpose(0, 2, 1)
    f_g = gates[hidden : 2 * hidden]
    cand = gates[2 * hidden : 3 * hidden]
    # every factor of the loop that does not depend on the carried gradients,
    # with ' the derivative of an activation:
    #   dc_t = dc + dh * o * tc'      dz_o = dh * tc * o'
    #   dz_i = dc_t * cand * i'       dz_f = dc_t * c_{t-1} * f'
    #   dz_g = dc_t * i * cand'
    # dz starts as the dz_* / dc_t and dz_o / dh factors; the loop scales each
    # step's slot in place.
    dz = 1.0 - gates
    dz *= gates
    if sigmoid_candidate:
        tc = np.multiply(cs[1:], 0.5)
        np.tanh(tc, tc)
        tc *= 0.5
        tc += 0.5
        dc_from_h = 1.0 - tc
        dc_from_h *= tc
    else:
        d_cand = dz[2 * hidden : 3 * hidden]
        np.multiply(cand, cand, d_cand)
        np.subtract(1.0, d_cand, d_cand)
        tc = np.tanh(cs[1:])
        dc_from_h = tc * tc
        np.subtract(1.0, dc_from_h, dc_from_h)
    dc_from_h *= gates[3 * hidden :].transpose(1, 0, 2)
    dz[:hidden] *= cand
    dz[hidden : 2 * hidden] *= cs[:-1].transpose(1, 0, 2)
    dz[2 * hidden : 3 * hidden] *= gates[:hidden]
    dz[3 * hidden :] *= tc.transpose(1, 0, 2)
    dh_in = np.ascontiguousarray(dh_all.transpose(0, 2, 1))
    dh = np.zeros((hidden, batch), dtype=np.float64)
    dc = np.zeros((hidden, batch), dtype=np.float64)
    # per-gate view of the contiguous dz: the input, forget and candidate
    # slots of a step scale by dc_t in one broadcast call
    dz4 = dz.reshape(4, hidden, seq_len, batch)
    for t in range(seq_len - 1, -1, -1):
        dh += dh_in[t]
        dct = dh * dc_from_h[t]
        dct += dc
        dz4[:3, :, t] *= dct
        dz4[3, :, t] *= dh
        dc = dct * f_g[:, t]
        dh = np.dot(wh, dz[:, t])
    dz = dz.reshape(4 * hidden, rows)
    h_in = np.ascontiguousarray(hs[:-1].transpose(1, 0, 2)).reshape(hidden, rows)
    dwx = np.dot(dz, x.reshape(rows, in_dim)).T
    dwh = np.dot(dz, h_in.T).T
    db = dz.sum(axis=1)
    return dwx, dwh, db, dh.T, dc.T
