"""Hot numeric kernels: neighbour-search distances and LSTM sweeps.

Two inner loops dominate pipeline runtime: neighbour searches (masked
pairwise distances for imputation, plain ones for SMOTE) and LSTM
forward/backward sweeps over 121-step sequences.  Each kernel has one numpy
build.  The masked distance is the BLAS-backed gram-trick formulation.  Its
reference-side terms (float mask, scaled zero-filled values and their
squares) depend only on the references, so ``prepare_reference`` packs them
once into one C-contiguous (3D, n_ref) block, and a caller that scores many
query sets, like the imputer, passes it in; that costs about 3 x n_ref x D
extra floats.  Each call then takes the distances of the rows it is given as
one matrix product of a (n_query, 3D) query block with that block, into one
output and one scratch block of n_query x n_ref.

Every neighbour search walks its query rows in blocks of
``search_rows(n_ref)`` rows, so one block of distances takes about
``SEARCH_BYTES``, a cache-sized amount, and selects with ``top_k``.  Peak
memory of a search is O(SEARCH_BYTES) whatever n_query is, and whatever
n_ref is as long as one distance row fits the budget (n_ref up to 262 144).

The LSTM sweep keeps only the recurrence in its time loop and works
time-major: the gate cache is (T, 4H, B), so each step reads and writes
contiguous blocks.  Forward hoists the input projection out of the loop and
caches the gate activations; backward reads that cache and takes the weight
gradients as batched per-step products summed over T, without copying any
gate or state array into another layout (see the section comment below).
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


def prepare_reference(rv, rm, inv_scale):
    """Reference side of ``masked_sqdist``: one C-contiguous (3D, n_ref)
    block whose rows are the float mask, the scaled zero-filled values and
    their squares."""
    ncols = rv.shape[1]
    block = np.empty((3 * ncols, rv.shape[0]))
    block[:ncols] = rm.T
    ar = block[ncols : 2 * ncols]
    ar[...] = np.where(rm, rv * inv_scale, 0.0).T
    np.multiply(ar, ar, out=block[2 * ncols :])
    return block


def masked_sqdist(qv, qm, rv, rm, inv_scale, total_cols, reference=None):
    """Gram-trick build: d2 = A2q.Mr' - 2 Aq.Ar' + Mq.A2r' as one product of
    the query block [A2q | -2 Aq | Mq] with the packed reference block.

    ``reference`` is ``prepare_reference(rv, rm, inv_scale)`` computed once
    by a caller that scores many query sets against the same references;
    without it the block is built here on every call.  The shared-column
    counts are Mq against the block's mask rows.  The result takes one output
    and one scratch block of n_query x n_ref.
    """
    block = prepare_reference(rv, rm, inv_scale) if reference is None else reference
    ncols = qv.shape[1]
    aq = np.where(qm, qv * inv_scale, 0.0)
    query = np.concatenate((aq * aq, aq * -2.0, qm), axis=1)
    d2 = np.matmul(query, block)
    np.maximum(d2, 0.0, out=d2)
    # shared-column counts are exact small integers in any summation order
    shared = np.matmul(query[:, 2 * ncols :], block[:ncols])
    none_shared = shared == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 *= np.divide(total_cols, shared, out=shared)
    d2[none_shared] = np.inf
    return d2


masked_sqdist_numpy = masked_sqdist  # older name, still read by perfbench


# -- neighbour search --------------------------------------------------------

# bytes of one block of float64 distance rows; a search holds a few blocks
SEARCH_BYTES = 2 * 1024 * 1024


def search_rows(n_ref: int) -> int:
    """Query rows per search block against n_ref references."""
    return max(1, SEARCH_BYTES // (8 * n_ref))


def top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """First k columns of ``np.argsort(d2, axis=1, kind="stable")``.

    ``np.argpartition`` at k leaves a row's k smallest first and its
    (k+1)-th smallest in column k; the k are ordered by (distance, column).
    That pick is the stable one when the (k+1)-th value is strictly above
    the k-th, an O(k) check per row; other rows (a tie, ``+inf`` or NaN at
    the cut) are stable-sorted whole.
    """
    if k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows = np.arange(d2.shape[0])[:, None]
    picked = np.argpartition(d2, k, axis=1)[:, : k + 1]
    # the (k+1)-th value, read now so that nothing holds the (n, n_ref)
    # partition block once the picked k are reindexed below
    after = d2[rows, picked[:, k:]]
    picked = picked[:, :k]
    dist = d2[rows, picked]
    # sort the picked k by (distance, index); lexsort keys run last-major
    order = np.lexsort((picked, dist), axis=1)
    picked = picked[rows, order]
    kth = dist[rows, order[:, -1:]]
    # NaN compares False, so a NaN k-th or (k+1)-th value falls back too
    for row in np.flatnonzero(~(after > kth)[:, 0]):
        picked[row] = np.argsort(d2[row], kind="stable")[:k]
    return picked


# -- LSTM sequence forward / backward ----------------------------------------
#
# Gate layout along the 4H axis: [input | forget | candidate | output].
# ``sigmoid_candidate`` switches the candidate/cell-output transform from
# tanh to sigmoid (the autoencoder variant); gates always use sigmoid.
#
# Only the recurrence stays in the time loop.  Forward projects all T*B input
# rows before the loop with one einsum straight into the cache; each step
# adds h_{t-1} Wh to its block and turns the block into gate activations in
# place, so backward never evaluates exp or tanh of a pre-activation.
# Backward derives every gate derivative in one pass over T, carries only dh
# and dc through the loop, and takes the weight gradients after it:
# dWx = sum_t dz_t x_t and dWh = sum_t dz_t h_{t-1}' are each one batched
# matmul over T, summed over T, and db is one sum.  Sigmoid is the one-ufunc
# form sigmoid(z) = 0.5 + 0.5 * tanh(z / 2).
#
# Inside the kernels everything is time-major with the batch innermost: the
# gate cache is (T, 4H, B) and the states are (T+1, H, B), so all a step reads
# or writes is one contiguous (4H, B) or (H, B) block, and the products before
# and after the loop pair aligned (T, ., B) arrays.  No gate or state array
# is copied into another layout; the one transposed copy is of the incoming
# (T, B, H) dh_all, which the loop then reads contiguously, and backward's
# batched products read x and h_{t-1} through views.  hs and cs are returned
# as (T+1, B, H) views; the cache only means something to backward.


def lstm_forward(x, wx, wh, b, h0, c0, sigmoid_candidate):
    seq_len, batch, _ = x.shape
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
    # the (4H, in) weights against each step's (in, B) inputs: the (T, 4H, B) cache
    gates = np.einsum("gi,tib->tgb", wx.T * s, x.transpose(0, 2, 1))
    gates += b.reshape(4 * hidden, 1) * scale
    hs = np.empty((seq_len + 1, hidden, batch), dtype=np.float64)
    cs = np.empty((seq_len + 1, hidden, batch), dtype=np.float64)
    tc = np.empty((hidden, batch), dtype=np.float64)
    hs[0] = h0.T
    cs[0] = c0.T
    for t in range(seq_len):
        g = gates[t]
        g += np.dot(wh_t, hs[t])
        np.tanh(g, g)
        g *= scale
        g += shift
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
    seq_len, batch, _ = x.shape
    hidden = wh.shape[0]
    hs = hs.transpose(0, 2, 1)
    cs = cs.transpose(0, 2, 1)
    f_g = gates[:, hidden : 2 * hidden]
    cand = gates[:, 2 * hidden : 3 * hidden]
    # every factor of the loop that does not depend on the carried gradients,
    # with ' the derivative of an activation:
    #   dc_t = dc + dh * o * tc'      dz_o = dh * tc * o'
    #   dz_i = dc_t * cand * i'       dz_f = dc_t * c_{t-1} * f'
    #   dz_g = dc_t * i * cand'
    # dz starts as the dz_* / dc_t and dz_o / dh factors; the loop scales each
    # step's block in place.
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
        d_cand = dz[:, 2 * hidden : 3 * hidden]
        np.multiply(cand, cand, d_cand)
        np.subtract(1.0, d_cand, d_cand)
        tc = np.tanh(cs[1:])
        dc_from_h = tc * tc
        np.subtract(1.0, dc_from_h, dc_from_h)
    dc_from_h *= gates[:, 3 * hidden :]
    dz[:, :hidden] *= cand
    dz[:, hidden : 2 * hidden] *= cs[:-1]
    dz[:, 2 * hidden : 3 * hidden] *= gates[:, :hidden]
    dz[:, 3 * hidden :] *= tc
    dh_in = np.ascontiguousarray(dh_all.transpose(0, 2, 1))
    dh = np.zeros((hidden, batch), dtype=np.float64)
    dc = np.zeros((hidden, batch), dtype=np.float64)
    # per-gate view of dz: the input, forget and candidate blocks of a step
    # scale by dc_t in one broadcast call
    dz4 = dz.reshape(seq_len, 4, hidden, batch)
    for t in range(seq_len - 1, -1, -1):
        dh += dh_in[t]
        dct = dh * dc_from_h[t]
        dct += dc
        dz4[t, :3] *= dct
        dz4[t, 3] *= dh
        dc = dct * f_g[t]
        dh = np.dot(wh, dz[t])
    # sum_t dz_t x_t and sum_t dz_t h_{t-1}', the (B, .) operands as views
    dwx = np.matmul(dz, x).sum(axis=0).T
    dwh = np.matmul(dz, hs[:-1].transpose(0, 2, 1)).sum(axis=0).T
    db = dz.sum(axis=(0, 2))
    return dwx, dwh, db, dh.T, dc.T
