"""k-nearest-neighbour imputation of missing tabular cells.

Neighbours are found with a partial Euclidean distance over the jointly
observed numeric coordinates, scale-normalized per column and rescaled by
sqrt(D/d) for d of D coordinates observed.  Categorical columns do not
enter the distance; their missing cells take the majority label among the
same numeric-space neighbours.

The search runs over fixed-size blocks of query rows: each block's distance
rows come from ``kernels.masked_sqdist``, ``np.argpartition`` picks the k
smallest per row, and those k are ordered by (distance, reference index).
The result is exactly ``np.argsort(d2, kind="stable")[:, :k]``: a row with
another distance equal to its k-th value outside the picked k (ties,
including ``+inf`` for references sharing no observed coordinate) is
stable-sorted whole instead.  Peak memory is O(block x n_ref), not
O(n_query x n_ref).

The model is immutable after fit and imputation is pure per row, so rows
may be processed in parallel without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import DatasetSchema, categorical_codes, numeric_matrix, replace_tabular
from .errors import NoComparableRow, TooFewRows


@dataclass(frozen=True)
class ImputerModel:
    k: int
    reference_numeric: np.ndarray  # (n_ref, D) with NaN for missing
    reference_categorical: np.ndarray  # (n_ref, Q) int codes, -1 missing
    numeric_scale: np.ndarray  # (D,) strictly positive
    column_mean: np.ndarray  # observed train mean per column (NaN if none)
    column_mode: np.ndarray  # observed train mode code per variable (-1 if none)
    schema: DatasetSchema


def fit_imputer(train, schema: DatasetSchema, k: int = 5) -> ImputerModel:
    """Store scaled reference rows; no imputation happens at fit time."""
    if k < 1:
        raise TooFewRows(f"k must be >= 1, got {k}")
    ref_num = numeric_matrix(train, schema)
    ref_cat = categorical_codes(train, schema)
    usable = np.isfinite(ref_num).any(axis=1).sum()
    if usable < k:
        raise TooFewRows(f"k={k} exceeds the {usable} usable reference rows")
    observed_counts = np.isfinite(ref_num).sum(axis=0)
    denom = np.maximum(observed_counts, 1)
    col_mean_raw = np.nansum(ref_num, axis=0) / denom
    centered = np.where(np.isfinite(ref_num), ref_num - col_mean_raw, 0.0)
    scale = np.sqrt(np.sum(centered * centered, axis=0) / denom)
    scale = np.where(np.isfinite(scale) & (scale > 0.0), scale, 1.0)
    col_mean = np.where(observed_counts > 0, col_mean_raw, np.nan)
    modes = np.full(schema.n_categorical, -1, dtype=np.int64)
    for v in range(schema.n_categorical):
        observed = ref_cat[:, v][ref_cat[:, v] >= 0]
        if observed.size:
            counts = np.bincount(observed, minlength=len(schema.categorical_levels[v]))
            modes[v] = int(np.argmax(counts))
    return ImputerModel(
        k=k,
        reference_numeric=ref_num,
        reference_categorical=ref_cat,
        numeric_scale=scale,
        column_mean=col_mean,
        column_mode=modes,
        schema=schema,
    )


# query rows per distance block; equal to the kernel's own row block, so
# each block's distances are computed exactly as in one whole-matrix call
SEARCH_BLOCK = 512


def top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """First k columns of ``np.argsort(d2, axis=1, kind="stable")``."""
    if k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    picked = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, picked, axis=1)
    # sort the picked k by (distance, index); lexsort keys run last-major
    order = np.lexsort((picked, dist), axis=1)
    picked = np.take_along_axis(picked, order, axis=1)
    kth = np.take_along_axis(dist, order[:, -1:], axis=1)
    # the picked set is the stable one unless a value equal to the k-th lies
    # outside it (a NaN k-th value counts nothing and also lands here)
    tied = np.count_nonzero(d2 <= kth, axis=1) != k
    for row in np.flatnonzero(tied):
        picked[row] = np.argsort(d2[row], kind="stable")[:k]
    return picked


def _neighbour_indices(model: ImputerModel, query_num: np.ndarray, rows) -> np.ndarray:
    """k nearest reference indices per query row, ties broken by row index."""
    rm = np.isfinite(model.reference_numeric)
    rv = np.where(rm, model.reference_numeric, 0.0)
    inv_scale = 1.0 / model.numeric_scale
    out = np.empty((query_num.shape[0], min(model.k, rv.shape[0])), dtype=np.int64)
    for start in range(0, query_num.shape[0], SEARCH_BLOCK):
        block = query_num[start : start + SEARCH_BLOCK]
        qm = np.isfinite(block)
        qv = np.where(qm, block, 0.0)
        d2 = kernels.masked_sqdist(qv, qm, rv, rm, inv_scale, query_num.shape[1])
        no_overlap = ~np.isfinite(d2).any(axis=1)
        if no_overlap.any():
            bad = rows[start + int(np.flatnonzero(no_overlap)[0])]
            raise NoComparableRow(
                f"deal {bad.deal_id} shares no observed numeric coordinate with any reference"
            )
        out[start : start + block.shape[0]] = top_k(d2, model.k)
    return out


def impute(model: ImputerModel, deals) -> list:
    """Fill missing cells from the k nearest references; observed cells unchanged."""
    schema = model.schema
    query_num = numeric_matrix(deals, schema)
    query_cat = categorical_codes(deals, schema)
    incomplete = np.flatnonzero(
        ~np.isfinite(query_num).all(axis=1) | (query_cat < 0).any(axis=1)
    )
    if incomplete.size == 0:
        return list(deals)

    sub = [deals[i] for i in incomplete]
    nbrs = _neighbour_indices(model, query_num[incomplete], sub)

    out_num = query_num.copy()
    out_cat = query_cat.copy()
    for row, i in enumerate(incomplete):
        nb_num = model.reference_numeric[nbrs[row]]
        nb_cat = model.reference_categorical[nbrs[row]]
        for j in np.flatnonzero(~np.isfinite(query_num[i])):
            vals = nb_num[:, j]
            vals = vals[np.isfinite(vals)]
            if vals.size:
                out_num[i, j] = vals.mean()
            elif np.isfinite(model.column_mean[j]):
                out_num[i, j] = model.column_mean[j]
            else:
                out_num[i, j] = 0.0
        for v in np.flatnonzero(query_cat[i] < 0):
            votes = nb_cat[:, v][nb_cat[:, v] >= 0]
            if votes.size:
                counts = np.bincount(votes, minlength=len(schema.categorical_levels[v]))
                out_cat[i, v] = int(np.argmax(counts))
            else:
                out_cat[i, v] = max(model.column_mode[v], 0)

    result = list(deals)
    for i in incomplete:
        result[i] = replace_tabular(deals[i], out_num[i], out_cat[i], schema)
    return result
