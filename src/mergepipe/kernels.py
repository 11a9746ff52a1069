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
time-major, so each step reads and writes contiguous blocks.  Forward hoists
the input projection out of the loop (a zero-width input has none to hoist)
and caches the gate activations and tanh(c_t); backward turns that cache
into the gate derivatives in place and takes the weight gradients as batched
per-step products summed over T.  A caller that reads only the last hidden
state passes backward that state's gradient alone, and a training loop
passes both kernels one scratch dict whose arrays they reuse from batch to
batch (see the section comment below).
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
# The gates use sigmoid; the candidate and the cell output use tanh.
#
# Only the recurrence stays in the time loop.  With an input, forward projects
# all T*B input rows before the loop with one einsum straight into the gate
# block and adds the bias, and each step adds h_{t-1} Wh; with none (width 0,
# the autoencoder's decoder) each step writes h_{t-1} Wh into its block and
# adds the bias.  The step then turns its block into gate activations in
# place.  The cache is that (T, 4H, B) block of activations and the (T, H, B)
# tanh(c_t) of every step, so backward evaluates no exp or tanh.  Backward
# overwrites the activations with the gate derivatives in one pass over T,
# so the cache serves one backward; it carries only dh and dc through the
# loop and takes the weight gradients after it:
# dWx = sum_t dz_t x_t and dWh = sum_t dz_t h_{t-1}' are each one batched
# matmul over T, summed over T, and db is one sum.  Sigmoid is the one-ufunc
# form sigmoid(z) = 0.5 + 0.5 * tanh(z / 2).
#
# Backward's dh is the gradient of every h_t, (T, B, H), or of h_T alone,
# (B, H), for a caller that reads only the last state (the f3 classifier,
# the f2 encoder); the two give the same bits when the full one is zero
# before T.  The loop reads a full dh through its (T, H, B) transpose, which
# is copied only when it is not contiguous, so a caller that builds dh in
# that layout saves the copy.
#
# Inside the kernels everything is time-major with the batch innermost: the
# gate block is (T, 4H, B) and the states are (T+1, H, B), so all a step reads
# or writes is one contiguous (4H, B) or (H, B) block, each step's temporaries
# go into buffers made once per call, and the products before and after the
# loop pair aligned (T, ., B) arrays.  hs and cs are returned as (T+1, B, H)
# views; the cache only means something to backward.
#
# A training loop calls the kernels once per batch at one or two shapes.
# Given ``work``, a dict the caller keeps across those calls, the kernels
# take their (T, ., B) arrays from it rather than fresh: the allocator hands
# fresh arrays of a few MB back to the OS when they are freed, so every call
# would page them in again.  The outputs of a call then live in the dict,
# and the next call with the same dict and shapes overwrites them.


def _scratch(work, name, shape):
    """An uninitialized float64 array: fresh, or the one ``work`` keeps for
    ``name`` at this shape."""
    if work is None:
        return np.empty(shape)
    key = (name, shape)
    if key not in work:
        work[key] = np.empty(shape)
    return work[key]


def lstm_forward(x, wx, wh, b, h0, c0, work=None):
    """Sweep the cell over time-major x, (T, B, in); returns hs and cs, each
    (T+1, B, H) with the start state first, and backward's cache.  ``work``:
    see the section comment."""
    seq_len, batch, in_dim = x.shape
    hidden = wh.shape[0]
    # act(z) = s * tanh(s * z) + (1 - s): s = 1/2 on sigmoid rows, 1 on a tanh
    # candidate.  s is a power of two, so folding it into the weights gives
    # tanh the same argument as scaling z, bit for bit.
    scale = np.full((4 * hidden, batch), 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - scale
    s = scale[:, :1]
    wh_t = wh.T * s
    bias = b.reshape(4 * hidden, 1) * scale
    gates = _scratch(work, "gates", (seq_len, 4 * hidden, batch))
    if in_dim:
        # the (4H, in) weights against each step's (in, B) inputs
        np.einsum("gi,tib->tgb", wx.T * s, x.transpose(0, 2, 1), out=gates)
        gates += bias
    hs = _scratch(work, "hs", (seq_len + 1, hidden, batch))
    cs = _scratch(work, "cs", (seq_len + 1, hidden, batch))
    tcs = _scratch(work, "tcs", (seq_len, hidden, batch))
    rec = np.empty((4 * hidden, batch))
    ic = np.empty((hidden, batch))
    hs[0] = h0.T
    cs[0] = c0.T
    for t in range(seq_len):
        g = gates[t]
        if in_dim:
            g += np.dot(wh_t, hs[t], out=rec)
        else:
            np.add(np.dot(wh_t, hs[t], out=g), bias, g)
        np.tanh(g, g)
        g *= scale
        g += shift
        c = cs[t + 1]
        np.multiply(g[hidden : 2 * hidden], cs[t], c)
        c += np.multiply(g[:hidden], g[2 * hidden : 3 * hidden], ic)
        np.tanh(c, tcs[t])
        np.multiply(g[3 * hidden :], tcs[t], hs[t + 1])
    return hs.transpose(0, 2, 1), cs.transpose(0, 2, 1), (gates, tcs)


def lstm_backward(x, wx, wh, hs, cs, cache, dh, work=None):
    """Weight gradients and the start state's (dh0, dc0), each (B, H), for
    the gradient ``dh`` of every h_t, (T, B, H), or of h_T alone, (B, H).

    Consumes ``cache``: its gate block is overwritten with the gate
    derivatives, so a second backward needs a second forward.  hs and cs
    are only read.  ``work``: see the section comment."""
    seq_len, batch, _ = x.shape
    hidden = wh.shape[0]
    gates, tc = cache
    hs = hs.transpose(0, 2, 1)
    cs = cs.transpose(0, 2, 1)
    i_g, f_g, cand, o_g = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
    # every factor of the loop that does not depend on the carried gradients,
    # with ' the derivative of an activation:
    #   dc_t = dc + dh * o * tc'      dz_o = dh * tc * o'
    #   dz_i = dc_t * cand * i'       dz_f = dc_t * c_{t-1} * f'
    #   dz_g = dc_t * i * cand'
    # The gate block becomes dz, the dz_* / dc_t and dz_o / dh factors, in
    # place, each gate read for the last time before it is overwritten; the
    # loop then scales each step's block.  The loop's f is kept aside, and
    # once o' has read tanh(c_t), its block serves as the scratch.
    f = _scratch(work, "f", tc.shape)
    dc_from_h = np.multiply(tc, tc, _scratch(work, "dc_from_h", tc.shape))
    np.subtract(1.0, dc_from_h, dc_from_h)
    dc_from_h *= o_g
    o_g *= np.subtract(1.0, o_g, f)
    o_g *= tc
    np.copyto(f, f_g)
    tmp = tc
    f_g *= np.subtract(1.0, f_g, tmp)
    f_g *= cs[:-1]
    # dz_i goes to tmp while dz_g still reads i
    np.subtract(1.0, i_g, tmp)
    tmp *= i_g
    tmp *= cand
    np.multiply(cand, cand, cand)
    np.subtract(1.0, cand, cand)
    cand *= i_g
    i_g[...] = tmp
    dz = gates
    # the carried gradients start at zero; 0.0 + dh_T as a full dh would add it
    every_step = dh.ndim == 3
    dh_in = np.ascontiguousarray(dh.transpose(0, 2, 1)) if every_step else None
    dh = np.zeros((hidden, batch)) if every_step else np.add(dh.T, 0.0, order="C")
    dc = np.zeros((hidden, batch))
    dct = np.empty((hidden, batch))
    # per-gate view of dz: the input, forget and candidate blocks of a step
    # scale by dc_t in one broadcast call
    dz4 = dz.reshape(seq_len, 4, hidden, batch)
    for t in range(seq_len - 1, -1, -1):
        if every_step:
            dh += dh_in[t]
        np.multiply(dh, dc_from_h[t], dct)
        dct += dc
        dz4[t, :3] *= dct
        dz4[t, 3] *= dh
        np.multiply(dct, f[t], dc)
        np.dot(wh, dz[t], out=dh)
    # sum_t dz_t x_t and sum_t dz_t h_{t-1}', the (B, .) operands as views
    dwx = np.matmul(dz, x).sum(axis=0).T
    dwh = np.matmul(dz, hs[:-1].transpose(0, 2, 1)).sum(axis=0).T
    db = dz.sum(axis=(0, 2))
    return dwx, dwh, db, dh.T, dc.T
