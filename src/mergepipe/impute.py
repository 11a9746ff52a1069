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

The reference side of the distance depends on the fitted model alone, so
``ImputerModel`` prepares it once, when it is constructed: the observed
mask, 1 / numeric_scale and ``kernels.prepare_reference``'s float mask,
scaled zero-filled values and their square, about 3 x n_ref x D extra
floats.  Every ``impute`` call passes them to ``kernels.masked_sqdist``.

Missing cells of all incomplete rows are filled at once with array
operations, bit-identical to a per-cell ``vals.mean()`` over the finite
neighbour values and ``np.bincount(votes).argmax()`` over the observed
neighbour labels.  Means are taken per group of cells with the same number
of finite values: from 8 values on, numpy sums pairwise, so a masked sum
over all k columns would group them differently.

The model is immutable after fit and imputation is pure per row, so rows
may be processed in parallel without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dataset import DatasetSchema, DealRecord, categorical_codes, numeric_matrix
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
    # reference side of every distance call, derived from the fields above
    # once per model: observed mask, 1 / numeric_scale and
    # kernels.prepare_reference's (float mask, scaled values, their square)
    reference_observed: np.ndarray = field(init=False, repr=False, compare=False)
    inv_scale: np.ndarray = field(init=False, repr=False, compare=False)
    reference_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        observed = np.isfinite(self.reference_numeric)
        inv_scale = 1.0 / self.numeric_scale
        terms = kernels.prepare_reference(self.reference_numeric, observed, inv_scale)
        object.__setattr__(self, "reference_observed", observed)
        object.__setattr__(self, "inv_scale", inv_scale)
        object.__setattr__(self, "reference_terms", terms)


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


# query rows per distance call; the one bound on the distance temporaries,
# O(512 x n_ref), since the kernel computes whatever rows it is given at once
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
    ref = model.reference_numeric
    out = np.empty((query_num.shape[0], min(model.k, ref.shape[0])), dtype=np.int64)
    for start in range(0, query_num.shape[0], SEARCH_BLOCK):
        block = query_num[start : start + SEARCH_BLOCK]
        qm = np.isfinite(block)
        qv = np.where(qm, block, 0.0)
        d2 = kernels.masked_sqdist(
            qv, qm, ref, model.reference_observed, model.inv_scale, query_num.shape[1],
            reference=model.reference_terms,
        )
        no_overlap = ~np.isfinite(d2).any(axis=1)
        if no_overlap.any():
            bad = rows[start + int(np.flatnonzero(no_overlap)[0])]
            raise NoComparableRow(
                f"deal {bad.deal_id} shares no observed numeric coordinate with any reference"
            )
        out[start : start + block.shape[0]] = top_k(d2, model.k)
    return out


def _neighbour_means(vals: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Mean of the finite entries per row of vals (cells x k), else fallback.

    Each row's finite entries are moved left, in order, and rows are grouped
    by how many there are, so every mean sums the same values in the same
    order as ``vals[np.isfinite(vals)].mean()`` on the row alone: numpy's
    pairwise summation groups a length-c row the same way in both.
    """
    finite = np.isfinite(vals)
    count = finite.sum(axis=1)
    packed = np.take_along_axis(vals, np.argsort(~finite, axis=1, kind="stable"), axis=1)
    out = fallback.copy()
    for c in np.unique(count[count > 0]):
        rows = count == c
        out[rows] = packed[rows, :c].mean(axis=1)
    return out


def _majority_votes(codes: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Most frequent code >= 0 per row of codes (cells x k), the lowest code
    on a tie as ``np.bincount(...).argmax()`` gives it; fallback where no
    row entry is >= 0."""
    levels = np.arange(codes.max(initial=0) + 1)
    counts = (codes[:, :, None] == levels).sum(axis=1)
    return np.where(counts.any(axis=1), counts.argmax(axis=1), fallback)


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
    num = query_num[incomplete]
    cat = query_cat[incomplete]

    # every missing cell at once: its row's k neighbours' values in its column
    rows, cols = np.nonzero(~np.isfinite(num))
    fallback = np.where(np.isfinite(model.column_mean), model.column_mean, 0.0)
    num[rows, cols] = _neighbour_means(
        model.reference_numeric[nbrs[rows], cols[:, None]], fallback[cols]
    )
    rows, cols = np.nonzero(cat < 0)
    cat[rows, cols] = _majority_votes(
        model.reference_categorical[nbrs[rows], cols[:, None]],
        np.maximum(model.column_mode, 0)[cols],
    )

    levels = schema.categorical_levels
    result = list(deals)
    for i, num_row, cat_row in zip(incomplete.tolist(), num.tolist(), cat.tolist()):
        d = deals[i]
        result[i] = DealRecord(
            d.deal_id, d.announce_date, tuple(num_row),
            tuple(levels[v][code] for v, code in enumerate(cat_row)), d.sentiment, d.label,
        )
    return result
