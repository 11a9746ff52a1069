import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergepipe import kernels
from mergepipe.errors import SingleClass, TooFewMinority
from mergepipe.resample import (
    SmoteConfig,
    _interpolate,
    _neighbour_table,
    smote,
    validate_smote_geometry,
)


def toy_imbalanced(seed, n_maj=80, n_min=20, dim=3):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n_maj, dim)), rng.normal(2, 1, (n_min, dim))])
    y = np.concatenate([np.zeros(n_maj), np.ones(n_min)])
    return X, y


def test_interpolation_arithmetic():
    x = np.array([0.0, 0.0])
    y = np.array([2.0, 2.0])
    assert _interpolate(x, y, 0.5).tolist() == [1.0, 1.0]
    assert _interpolate(x, y, 0.0).tolist() == [0.0, 0.0]


def test_counts_80_20_to_balance():
    X, y = toy_imbalanced(0)
    Xa, ya = smote(X, y, SmoteConfig(k_neighbors=5, target_ratio=1.0, seed=1))
    assert Xa.shape[0] == 160
    assert (ya == 1).sum() == 80 and (ya == 0).sum() == 80
    # originals untouched as a prefix
    assert np.array_equal(Xa[:100], X)
    assert np.array_equal(ya[:100], y)
    # appended labels all minority
    assert (ya[100:] == 1).all()


def test_equal_ratio_is_identity():
    X, y = toy_imbalanced(1)
    Xa, ya = smote(X, y, SmoteConfig(target_ratio=0.25, seed=0))
    assert np.array_equal(Xa, X) and np.array_equal(ya, y)


def test_deterministic_given_seed():
    X, y = toy_imbalanced(2)
    a = smote(X, y, SmoteConfig(seed=42))
    b = smote(X, y, SmoteConfig(seed=42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = smote(X, y, SmoteConfig(seed=43))
    assert not np.array_equal(a[0], c[0])


def test_geometry_validates_on_outputs():
    for seed in range(5):
        X, y = toy_imbalanced(seed, n_maj=50, n_min=15, dim=4)
        Xa, ya = smote(X, y, SmoteConfig(k_neighbors=5, seed=seed))
        synth = Xa[X.shape[0] :]
        minority = X[y == 1]
        assert validate_smote_geometry(minority, synth, k=5)


def test_geometry_rejects_off_segment_point():
    X, y = toy_imbalanced(7, n_maj=40, n_min=12)
    Xa, _ = smote(X, y, SmoteConfig(k_neighbors=5, seed=7))
    synth = Xa[X.shape[0] :].copy()
    synth[0] += 0.1
    assert not validate_smote_geometry(X[y == 1], synth, k=5)


def test_geometry_vacuous_on_empty():
    X, y = toy_imbalanced(8)
    assert validate_smote_geometry(X[y == 1], np.empty((0, 3)), k=5)


def test_convex_hull_containment():
    X, y = toy_imbalanced(9, n_maj=60, n_min=18, dim=2)
    Xa, _ = smote(X, y, SmoteConfig(k_neighbors=4, seed=3))
    synth = Xa[X.shape[0] :]
    minority = X[y == 1]
    lo, hi = minority.min(axis=0), minority.max(axis=0)
    assert (synth >= lo - 1e-12).all() and (synth <= hi + 1e-12).all()


def test_too_few_minority():
    X, y = toy_imbalanced(10, n_maj=30, n_min=4)
    with pytest.raises(TooFewMinority):
        smote(X, y, SmoteConfig(k_neighbors=5))


def test_single_class():
    X = np.zeros((10, 2))
    y = np.zeros(10)
    with pytest.raises(SingleClass):
        smote(X, y, SmoteConfig())


def test_neighbour_table_matches_full_stable_argsort():
    rng = np.random.default_rng(11)
    # small integers make equal distances, and so ties, common
    minority = rng.integers(0, 4, size=(600, 3)).astype(np.float64)
    assert kernels.search_rows(minority.shape[0]) < minority.shape[0]
    diff = minority[:, None, :] - minority[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    for k in (1, 5, 9):
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_neighbour_table(minority, k), expected)


def test_smote_peak_memory_is_per_block():
    rng = np.random.default_rng(12)
    n_min, n_maj, dim = 3000, 3500, 4
    X = np.vstack([rng.normal(0, 1, (n_maj, dim)), rng.normal(2, 1, (n_min, dim))])
    y = np.concatenate([np.zeros(n_maj), np.ones(n_min)])
    tracemalloc.start()
    try:
        smote(X, y, SmoteConfig(k_neighbors=5, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full_matrix = 8 * n_min * n_min
    assert peak < full_matrix / 4


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 4),
    dim=st.integers(1, 3),
    extra_majority=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_every_synthetic_row_lies_on_a_segment_from_its_seed(data, k, dim, extra_majority, seed):
    # small integer features: the distances are exact in any summation
    # order and ties between neighbours are common
    n_min = data.draw(st.integers(k + 1, 10), label="n_min")
    n_maj = n_min + extra_majority
    coords = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    X = np.array(data.draw(st.lists(coords, min_size=n_min + n_maj, max_size=n_min + n_maj)),
                 dtype=np.float64)
    y = np.array(data.draw(st.permutations([0] * n_maj + [1] * n_min)), dtype=np.int64)
    Xa, ya = smote(X, y, SmoteConfig(k_neighbors=k, seed=seed))
    minority = X[y == 1]
    # brute-force neighbours: squared differences, self excluded, stable order
    d2 = ((minority[:, None, :] - minority[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    for s, row in enumerate(Xa[len(X):]):
        x = minority[s % n_min]  # seeds are visited round-robin
        on_segment = False
        for y_row in minority[nbrs[s % n_min]]:
            d = y_row - x
            t = 0.0 if not d.any() else float((row - x) @ d / (d @ d))
            on_segment |= -1e-12 <= t <= 1 + 1e-12 and np.allclose(row, x + t * d, atol=1e-12)
        assert on_segment, (s, row)
