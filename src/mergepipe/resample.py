"""Minority oversampling by segment interpolation between nearest neighbours.

The neighbour table walks the minority rows in blocks of
``kernels.search_rows(n_min)`` rows and keeps each row's k nearest with
``kernels.top_k``, so its peak memory is O(kernels.SEARCH_BYTES), not the
O(n_min^2) of a full distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .codec import Json
from .errors import BadConfig, MultiClass, SingleClass, TooFewMinority


@dataclass(frozen=True)
class SmoteConfig(Json):
    k_neighbors: int = 5
    target_ratio: float = 1.0  # desired minority/majority count ratio
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise BadConfig("k_neighbors must be >= 1")
        if not (0.0 < self.target_ratio <= 1.0):
            raise BadConfig("target_ratio must lie in (0, 1]")


def _neighbour_table(minority: np.ndarray, k: int) -> np.ndarray:
    """k nearest minority neighbours per minority row (self excluded),
    distance ties broken by row index.

    Squared distances aa - 2 a.a' + aa' are taken for blocks of
    ``kernels.search_rows(n)`` rows, so peak memory is O(SEARCH_BYTES)
    rather than O(n^2); each block's self-distances are +inf.
    """
    n = minority.shape[0]
    sq = (minority * minority).sum(axis=1)
    out = np.empty((n, min(k, n)), dtype=np.int64)
    step = kernels.search_rows(n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        d2 = np.matmul(minority[start:stop], minority.T)
        d2 *= 2.0
        np.subtract(sq[start:stop, None], d2, out=d2)
        d2 += sq
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(stop - start)
        d2[rows, start + rows] = np.inf
        out[start:stop] = kernels.top_k(d2, k)
    return out


def _interpolate(x: np.ndarray, y: np.ndarray, u: float) -> np.ndarray:
    return x + (y - x) * u


def smote(features: np.ndarray, labels: np.ndarray, config: SmoteConfig):
    """Append synthetic minority rows until minority/majority = target_ratio.

    Original rows stay untouched as a prefix.  Each synthetic row is
    x + (y - x) * u for a minority row x (visited round-robin), one of its
    k nearest minority neighbours y (chosen uniformly), and u ~ U(0, 1).
    A target ratio at or below the current ratio returns the input as-is.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if classes.shape[0] < 2:
        raise SingleClass("both classes must be present")
    if classes.shape[0] > 2:
        raise MultiClass("smote supports binary labels only")
    minority_label = classes[np.argmin(counts)]
    n_min = counts.min()
    n_maj = counts.max()
    if n_min <= config.k_neighbors:
        raise TooFewMinority(
            f"minority count {n_min} must exceed k_neighbors={config.k_neighbors}"
        )
    n_target = int(np.floor(config.target_ratio * n_maj))
    n_new = n_target - int(n_min)
    if n_new <= 0:
        return features, labels

    minority_rows = features[labels == minority_label]
    nbrs = _neighbour_table(minority_rows, config.k_neighbors)
    rng = np.random.default_rng(config.seed)
    synth = np.empty((n_new, features.shape[1]), dtype=np.float64)
    for s in range(n_new):
        base = s % minority_rows.shape[0]
        pick = nbrs[base, rng.integers(0, config.k_neighbors)]
        u = rng.random()
        synth[s] = _interpolate(minority_rows[base], minority_rows[pick], u)
    out_features = np.vstack([features, synth])
    out_labels = np.concatenate([labels, np.full(n_new, minority_label, dtype=labels.dtype)])
    return out_features, out_labels


def validate_smote_geometry(minority: np.ndarray, synthetic: np.ndarray, k: int, tol=1e-9):
    """True iff every synthetic row lies on a segment between a minority row
    and one of its k nearest minority neighbours."""
    minority = np.asarray(minority, dtype=np.float64)
    synthetic = np.asarray(synthetic, dtype=np.float64)
    if synthetic.shape[0] == 0:
        return True
    nbrs = _neighbour_table(minority, k)
    segments = []
    for i in range(minority.shape[0]):
        for j in nbrs[i]:
            segments.append((minority[i], minority[j]))
    for s in synthetic:
        on_some_segment = False
        for x, y in segments:
            d = y - x
            denom = float(d @ d)
            if denom == 0.0:
                resid = np.linalg.norm(s - x)
            else:
                t = float(np.clip((s - x) @ d / denom, 0.0, 1.0))
                resid = np.linalg.norm(s - (x + t * d))
            if resid <= tol * (1.0 + np.linalg.norm(d)):
                on_some_segment = True
                break
        if not on_some_segment:
            return False
    return True
