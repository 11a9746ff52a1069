"""One-hot encoding plus linear dimensionality reduction.

PCA standardizes numeric columns with training statistics and diagonalizes
the sample covariance; MCA runs the correspondence-analysis SVD on the
standardized residual of the one-hot indicator matrix.  Fitted models are
immutable, transform rows independently, and serialize to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Json
from .dataset import DatasetSchema, DealFrame
from .errors import DegenerateData, EmptyLevel, MissingCell, ShapeMismatch


def one_hot_offsets(schema: DatasetSchema) -> dict:
    """Column block (start, stop) per categorical variable."""
    offsets = {}
    start = 0
    for name, levels in zip(schema.categorical_names, schema.categorical_levels):
        offsets[name] = (start, start + len(levels))
        start += len(levels)
    return offsets


def one_hot_encode(deals, schema: DatasetSchema) -> np.ndarray:
    """Indicator matrix with one 1 per categorical variable block per row."""
    frame = DealFrame.of(deals, schema)
    if (frame.codes < 0).any():
        i, v = np.argwhere(frame.codes < 0)[0]
        raise MissingCell(
            f"deal {frame.deal_ids[i]}: missing {schema.categorical_names[v]!r}; impute first"
        )
    starts = np.array([start for start, _ in one_hot_offsets(schema).values()], dtype=np.int64)
    width = sum(len(l) for l in schema.categorical_levels)
    out = np.zeros((len(frame), width), dtype=np.float64)
    out[np.arange(len(frame))[:, None], starts + frame.codes] = 1.0
    return out


# -- PCA ---------------------------------------------------------------------


@dataclass(frozen=True)
class PcaModel(Json):
    JSON_HEADER = {"format_version": 1, "kind": "pca"}
    mean: np.ndarray  # (m,)
    scale: np.ndarray  # (m,) training std, zero-spread columns get 1
    components: np.ndarray  # (n_keep, m), orthonormal rows
    eigenvalues: np.ndarray  # (n_keep,), nonincreasing
    total_variance: float


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def pca_fit(X: np.ndarray, n_keep: int) -> PcaModel:
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if n < 2:
        raise DegenerateData(f"need at least 2 rows, got {n}")
    if not (1 <= n_keep <= m):
        raise ShapeMismatch(f"n_keep={n_keep} outside [1, {m}]")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    Z = (X - mean) / scale
    cov = (Z.T @ Z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    components = _fix_signs(eigvecs[:, order].T)
    return PcaModel(
        mean=mean,
        scale=scale,
        components=components[:n_keep],
        eigenvalues=eigvals[:n_keep],
        total_variance=float(np.trace(cov)),
    )


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.mean.shape[0]:
        raise ShapeMismatch(
            f"expected {model.mean.shape[0]} columns, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    return ((X - model.mean) / model.scale) @ model.components.T


# -- MCA ---------------------------------------------------------------------


@dataclass(frozen=True)
class McaModel(Json):
    JSON_HEADER = {"format_version": 1, "kind": "mca"}
    column_masses: np.ndarray  # (J,), sums to 1
    n_vars: int  # Q: ones per row in the indicator matrix
    column_axes: np.ndarray  # (J, n_keep): D_c^{-1/2} V
    principal_inertias: np.ndarray  # (n_keep,), nonincreasing
    total_inertia: float
    level_offsets: dict[str, tuple[int, int]] | None = None


def _indicator_checks(X: np.ndarray) -> int:
    row_sums = X.sum(axis=1)
    q = row_sums[0]
    if not np.allclose(row_sums, q) or q < 1:
        raise ShapeMismatch("every indicator row must sum to the same variable count")
    return int(round(q))


def mca_fit(X: np.ndarray, n_keep: int, level_offsets: dict | None = None) -> McaModel:
    X = np.asarray(X, dtype=np.float64)
    n_rows, j_cols = X.shape
    q = _indicator_checks(X)
    col_sums = X.sum(axis=0)
    if (col_sums == 0.0).any():
        empty = int(np.flatnonzero(col_sums == 0.0)[0])
        raise EmptyLevel(f"indicator column {empty} is all zero; drop it before fitting")
    max_rank = min(j_cols - q, n_rows)
    if not (1 <= n_keep <= max_rank):
        raise ShapeMismatch(f"n_keep={n_keep} outside [1, J - Q = {max_rank}]")
    total = X.sum()
    P = X / total
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    resid = (P - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    _, sing, vt = np.linalg.svd(resid, full_matrices=False)
    inertias = sing**2
    axes = vt.T / np.sqrt(c)[:, None]
    axes = _fix_signs(axes.T).T  # deterministic sign per axis
    return McaModel(
        column_masses=c,
        n_vars=q,
        column_axes=axes[:, :n_keep],
        principal_inertias=inertias[:n_keep],
        total_inertia=float(inertias[: max_rank].sum()),
        level_offsets=level_offsets,
    )


def mca_transform(model: McaModel, X: np.ndarray) -> np.ndarray:
    """Project row profiles onto the stored principal axes."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.column_masses.shape[0]:
        raise ShapeMismatch("indicator width does not match the fitted model")
    row_sums = X.sum(axis=1)
    if (row_sums <= 0.0).any():
        raise ShapeMismatch("indicator rows must contain at least one 1")
    profiles = X / row_sums[:, None]
    return (profiles - model.column_masses) @ model.column_axes


def explained_curve(model) -> list:
    """Cumulative explained fraction per kept dimension; reaches 1.0 at full rank."""
    if isinstance(model, PcaModel):
        values, total = model.eigenvalues, model.total_variance
    else:
        values, total = model.principal_inertias, model.total_inertia
    fractions = np.cumsum(values) / total
    return [(d + 1, float(f)) for d, f in enumerate(fractions)]
