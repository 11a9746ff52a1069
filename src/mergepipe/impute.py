"""k-nearest-neighbour imputation of missing tabular cells.

Neighbours are found with a partial Euclidean distance over the jointly
observed numeric coordinates, scale-normalized per column and rescaled by
sqrt(D/d) for d of D coordinates observed.  Categorical columns do not
enter the distance; their missing cells take the majority label among the
same numeric-space neighbours.

The search walks the query rows in blocks of ``kernels.search_rows(n_ref)``
rows: each block's distance rows come from ``kernels.masked_sqdist`` and
``kernels.top_k`` keeps the k nearest, exactly
``np.argsort(d2, kind="stable")[:, :k]`` (``+inf`` marks references sharing
no observed coordinate).  One block of distances takes about
``kernels.SEARCH_BYTES``, so peak memory is O(SEARCH_BYTES), not
O(n_query x n_ref) or O(block x n_ref).

The model stores k and the reference rows alone.  Everything else is
derived from them once, when it is constructed, so a reloaded model
rebuilds it bit for bit: the column scales, and the observed means and
modes that fill cells no neighbour has; and the reference side of the
distance, that is the observed mask, 1 / numeric_scale and
``kernels.prepare_reference``'s (3D, n_ref) block packing the float mask,
scaled zero-filled values and their squares, about 3 x n_ref x D extra
floats.  Every ``impute`` call passes the latter to
``kernels.masked_sqdist``, which takes one matrix product with the block.

Missing cells of all incomplete rows are filled at once with array
operations, bit-identical to a per-cell ``vals.mean()`` over the finite
neighbour values and ``np.bincount(votes).argmax()`` over the observed
neighbour labels.  When all k neighbour values of every cell are finite,
which for a call with one or a few missing cells is common, that is one
``mean`` over the k columns.  Otherwise means are taken per group of cells
with the same number of finite values: from 8 values on, numpy sums
pairwise, so a masked sum over all k columns would group them differently.

The model is immutable after fit and imputation is pure per row, so rows
may be processed in parallel without changing the result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .codec import SKIP, Json
from .dataset import DatasetSchema, DealFrame
from .errors import BadConfig, NoComparableRow, TooFewRows


@dataclass(frozen=True)
class ImputerModel(Json):
    k: int
    reference_numeric: np.ndarray  # (n_ref, D) with NaN for missing
    reference_categorical: np.ndarray  # (n_ref, Q) int codes, -1 missing
    schema: DatasetSchema = field(metadata=SKIP)  # a pipeline stores it once, beside the model
    # derived from the reference rows once per model
    numeric_scale: np.ndarray = field(init=False, repr=False, compare=False)  # (D,) > 0
    column_mean: np.ndarray = field(init=False, repr=False, compare=False)  # NaN if none observed
    column_mode: np.ndarray = field(init=False, repr=False, compare=False)  # -1 if none observed
    # reference side of every distance call: observed mask, references
    # observed per column, 1 / numeric_scale and kernels.prepare_reference's
    # packed (3D, n_ref) block
    reference_observed: np.ndarray = field(init=False, repr=False, compare=False)
    reference_counts: np.ndarray = field(init=False, repr=False, compare=False)
    inv_scale: np.ndarray = field(init=False, repr=False, compare=False)
    reference_terms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ref_num, ref_cat = self.reference_numeric, self.reference_categorical
        schema = self.schema
        if ref_num.shape[1:] != (schema.n_numeric,):
            raise BadConfig(f"imputer.reference_numeric (shape {ref_num.shape}) disagrees "
                            f"with schema.numeric_names ({schema.n_numeric})")
        if ref_cat.shape != (len(ref_num), schema.n_categorical):
            raise BadConfig(f"imputer.reference_categorical (shape {ref_cat.shape}) disagrees "
                            f"with imputer.reference_numeric (shape {ref_num.shape}) or "
                            f"schema.categorical_names ({schema.n_categorical})")
        n_levels = np.array([len(levels) for levels in schema.categorical_levels])
        if ref_cat.dtype.kind != "i" or ((ref_cat < -1) | (ref_cat >= n_levels)).any():
            raise BadConfig("imputer.reference_categorical holds a code outside "
                            "schema.categorical_levels")
        observed = np.isfinite(ref_num)
        counts = observed.sum(axis=0)
        denom = np.maximum(counts, 1)
        col_mean = np.nansum(ref_num, axis=0) / denom
        centered = np.where(observed, ref_num - col_mean, 0.0)
        scale = np.sqrt(np.sum(centered * centered, axis=0) / denom)
        scale = np.where(np.isfinite(scale) & (scale > 0.0), scale, 1.0)
        inv_scale = 1.0 / scale
        # each variable's most frequent observed code, -1 where none is observed
        modes = _majority_votes(ref_cat.T, np.full(ref_cat.shape[1], -1, dtype=np.int64))
        terms = kernels.prepare_reference(ref_num, observed, inv_scale)
        object.__setattr__(self, "numeric_scale", scale)
        object.__setattr__(self, "column_mean", np.where(counts > 0, col_mean, np.nan))
        object.__setattr__(self, "column_mode", modes)
        object.__setattr__(self, "reference_observed", observed)
        object.__setattr__(self, "reference_counts", counts)
        object.__setattr__(self, "inv_scale", inv_scale)
        object.__setattr__(self, "reference_terms", terms)


def fit_imputer(train, schema: DatasetSchema, k: int = 5) -> ImputerModel:
    """Store the reference rows; no imputation happens at fit time."""
    if k < 1:
        raise TooFewRows(f"k must be >= 1, got {k}")
    frame = DealFrame.of(train, schema)
    usable = np.isfinite(frame.numeric).any(axis=1).sum()
    if usable < k:
        raise TooFewRows(f"k={k} exceeds the {usable} usable reference rows")
    return ImputerModel(
        k=k, reference_numeric=frame.numeric, reference_categorical=frame.codes, schema=schema
    )


def _neighbour_indices(model: ImputerModel, query_num: np.ndarray, deal_ids) -> np.ndarray:
    """k nearest reference indices per query row, ties broken by row index;
    deal_ids name the query rows in errors."""
    ref = model.reference_numeric
    out = np.empty((query_num.shape[0], min(model.k, ref.shape[0])), dtype=np.int64)
    step = kernels.search_rows(ref.shape[0])
    for start in range(0, query_num.shape[0], step):
        block = query_num[start : start + step]
        qm = np.isfinite(block)
        # from the masks, not the distances: an overflowing scaled square
        # makes a row all inf or NaN although its query shares columns
        no_overlap = qm @ model.reference_counts == 0
        if no_overlap.any():
            bad = deal_ids[start + int(np.flatnonzero(no_overlap)[0])]
            raise NoComparableRow(
                f"deal {bad} shares no observed numeric coordinate with any reference"
            )
        qv = np.where(qm, block, 0.0)
        d2 = kernels.masked_sqdist(
            qv, qm, ref, model.reference_observed, model.inv_scale, query_num.shape[1],
            reference=model.reference_terms,
        )
        out[start : start + block.shape[0]] = kernels.top_k(d2, model.k)
    return out


def _neighbour_means(vals: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Mean of the finite entries per row of vals (cells x k), else fallback.

    When every entry is finite this is ``vals.mean(axis=1)``.  Otherwise each
    row's finite entries are moved left, in order, and rows are grouped by
    how many there are, so every mean sums the same values in the same order
    as ``vals[np.isfinite(vals)].mean()`` on the row alone: numpy's pairwise
    summation groups a length-c row the same way in both.
    """
    finite = np.isfinite(vals)
    if finite.all():
        return vals.mean(axis=1)
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


def impute(model: ImputerModel, deals) -> DealFrame:
    """Fill missing cells from the k nearest references; observed cells
    unchanged.  Returns a frame: the input frame itself when nothing is
    missing, else one with filled copies of its numeric and code columns."""
    frame = DealFrame.of(deals, model.schema)
    incomplete = np.flatnonzero(
        ~np.isfinite(frame.numeric).all(axis=1) | (frame.codes < 0).any(axis=1)
    )
    if incomplete.size == 0:
        return frame

    num = frame.numeric[incomplete]
    cat = frame.codes[incomplete]
    nbrs = _neighbour_indices(model, num, frame.deal_ids[incomplete])

    # every missing cell at once: its row's k neighbours' values in its column
    rows, cols = np.nonzero(~np.isfinite(num))
    if rows.size:
        fallback = np.where(np.isfinite(model.column_mean), model.column_mean, 0.0)
        num[rows, cols] = _neighbour_means(
            model.reference_numeric[nbrs[rows], cols[:, None]], fallback[cols]
        )
    rows, cols = np.nonzero(cat < 0)
    if rows.size:
        cat[rows, cols] = _majority_votes(
            model.reference_categorical[nbrs[rows], cols[:, None]],
            np.maximum(model.column_mode, 0)[cols],
        )

    numeric, codes = frame.numeric.copy(), frame.codes.copy()
    numeric[incomplete] = num
    codes[incomplete] = cat
    return dataclasses.replace(frame, numeric=numeric, codes=codes)
