import datetime as dt

import numpy as np
import pytest

from mergepipe.dataset import DatasetSchema, DealRecord
from mergepipe.errors import EmptyLevel, MissingCell, ShapeMismatch
from mergepipe.reduce import (
    explained_curve,
    mca_fit,
    mca_transform,
    one_hot_encode,
    one_hot_offsets,
    pca_fit,
    pca_transform,
)


def cat_record(deal_id, labels):
    return DealRecord(deal_id, dt.date(2015, 1, 1), (), tuple(labels), None, 0)


class TestOneHot:
    def test_single_variable(self):
        schema = DatasetSchema((), ("v",), (("A", "B"),), sentiment_length=0)
        X = one_hot_encode([cat_record("a", ["B"])], schema)
        assert X.tolist() == [[0.0, 1.0]]

    def test_missing_cell(self):
        schema = DatasetSchema((), ("v",), (("A", "B"),), sentiment_length=0)
        with pytest.raises(MissingCell):
            one_hot_encode([cat_record("a", [None])], schema)

    def test_paper_level_counts_give_108_columns(self):
        # 40 two-level binaries plus 11 categoricals whose levels sum to 28
        cat_levels = [3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2]
        names = tuple(f"b{i}" for i in range(40)) + tuple(f"c{i}" for i in range(11))
        levels = tuple(("y", "n") for _ in range(40)) + tuple(
            tuple(f"L{j}" for j in range(k)) for k in cat_levels
        )
        schema = DatasetSchema((), names, levels, sentiment_length=0)
        row = ["y"] * 40 + ["L0"] * 11
        X = one_hot_encode([cat_record("a", row)], schema)
        assert X.shape == (1, 108)
        assert X.sum() == 51  # one 1 per variable block
        assert one_hot_offsets(schema)["c0"] == (80, 83)


def oracle_pca(X, n_keep):
    """Independent route: SVD of the standardized, centered data."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - mean) / scale
    _, s, vt = np.linalg.svd(Z, full_matrices=True)
    eigvals = np.zeros(X.shape[1])
    eigvals[: s.shape[0]] = s**2 / (X.shape[0] - 1)
    return eigvals[:n_keep], vt[:n_keep]


class TestPca:
    def test_line_y_equals_x(self):
        t = np.linspace(-2.0, 2.0, 9)
        X = np.stack([t, t], axis=1)
        model = pca_fit(X, n_keep=2)
        assert model.components[0] == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)], abs=1e-12)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        curve = explained_curve(model)
        assert curve[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_eigendecomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(6, 4))
            model = pca_fit(X, n_keep=4)
            ev_oracle, _ = oracle_pca(X, 4)
            assert np.allclose(model.eigenvalues, ev_oracle, atol=1e-8)
            # orthonormal components
            gram = model.components @ model.components.T
            assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_score_variances_equal_eigenvalues(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 5)) * np.array([3.0, 1.0, 0.5, 2.0, 1.0])
        model = pca_fit(X, n_keep=5)
        scores = pca_transform(model, X)
        var = scores.var(axis=0, ddof=1)
        assert np.allclose(var, model.eigenvalues, atol=1e-8)
        # scores decorrelated
        cov = np.cov(scores.T)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-6 * np.diag(cov).max()

    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        model = pca_fit(X, n_keep=3)
        scores = pca_transform(model, X.mean(axis=0, keepdims=True))
        assert np.allclose(scores, 0.0, atol=1e-12)

    def test_affine_combination_exact(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 4))
        model = pca_fit(X, n_keep=3)
        a, b = X[:1], X[1:2]
        alpha = 0.3
        lhs = pca_transform(model, alpha * a + (1 - alpha) * b)
        rhs = alpha * pca_transform(model, a) + (1 - alpha) * pca_transform(model, b)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        model = pca_fit(np.eye(4), n_keep=2)
        with pytest.raises(ShapeMismatch):
            pca_transform(model, np.zeros((2, 5)))

    def test_degenerate(self):
        from mergepipe.errors import DegenerateData

        with pytest.raises(DegenerateData):
            pca_fit(np.zeros((1, 3)), n_keep=1)

    def test_rank_limited_data_curve(self):
        rng = np.random.default_rng(9)
        loadings = rng.normal(size=(5, 12))
        X = rng.normal(size=(60, 5)) @ loadings
        model = pca_fit(X, n_keep=12)
        curve = explained_curve(model)
        assert curve[4][1] >= 0.999
        assert curve[-1][1] == pytest.approx(1.0, abs=1e-8)
        fracs = [f for _, f in curve]
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))


def indicator(rows):
    return np.asarray(rows, dtype=float)


def oracle_mca(X, n_keep):
    """Inertias via eigendecomposition of the residual Gram matrix, scores
    via the standard-coordinate transition formula."""
    X = np.asarray(X, dtype=float)
    total = X.sum()
    P = X / total
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    resid = np.diag(1.0 / np.sqrt(r)) @ (P - np.outer(r, c)) @ np.diag(1.0 / np.sqrt(c))
    evals, evecs = np.linalg.eigh(resid.T @ resid)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    V = evecs[:, order]
    return evals[:n_keep], V[:, :n_keep], c


class TestMca:
    def test_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            codes_a = rng.integers(0, 2, size=12)
            codes_b = rng.integers(0, 3, size=12)
            X = np.zeros((12, 5))
            X[np.arange(12), codes_a] = 1.0
            X[np.arange(12), 2 + codes_b] = 1.0
            if (X.sum(axis=0) == 0).any():
                continue
            model = mca_fit(X, n_keep=3)
            ev_oracle, V, c = oracle_mca(X, 3)
            assert np.allclose(model.principal_inertias, ev_oracle, atol=1e-8)
            axes_oracle = V / np.sqrt(c)[:, None]
            assert np.allclose(np.abs(model.column_axes), np.abs(axes_oracle), atol=1e-8)

    def test_perfectly_correlated_variables_plateau_at_one(self):
        X = indicator(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )
        model = mca_fit(X, n_keep=2)
        curve = explained_curve(model)
        assert curve[0][1] == pytest.approx(1.0, abs=1e-8)

    def test_transform_reproduces_fit_scores(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 2, size=(10, 2))
        X = np.zeros((10, 4))
        X[np.arange(10), codes[:, 0]] = 1.0
        X[np.arange(10), 2 + codes[:, 1]] = 1.0
        model = mca_fit(X, n_keep=2)
        scores = mca_transform(model, X)
        # oracle fit-time scores F = D_r^{-1/2} U Sigma, signs aligned per axis
        total = X.sum()
        P = X / total
        r = P.sum(axis=1)
        c = P.sum(axis=0)
        resid = np.diag(1.0 / np.sqrt(r)) @ (P - np.outer(r, c)) @ np.diag(1.0 / np.sqrt(c))
        u, s, _ = np.linalg.svd(resid, full_matrices=False)
        F = (u * s) / np.sqrt(r)[:, None]
        for k in range(2):
            col = scores[:, k]
            ref = F[:, k]
            sign = 1.0 if np.dot(col, ref) >= 0 else -1.0
            assert np.allclose(col, sign * ref, atol=1e-8)

    def test_duplicate_rows_identical_scores(self):
        X = indicator([[1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
        model = mca_fit(X, n_keep=1)
        scores = mca_transform(model, X)
        assert np.allclose(scores[0], scores[1], atol=1e-14)

    def test_zero_row_rejected(self):
        X = indicator([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]])
        model = mca_fit(X, n_keep=2)
        with pytest.raises(ShapeMismatch):
            mca_transform(model, np.zeros((1, 4)))

    def test_empty_level_rejected(self):
        X = indicator([[1, 0, 1, 0], [1, 0, 0, 1]])
        with pytest.raises(EmptyLevel):
            mca_fit(X, n_keep=1)

    def test_rank_cap(self):
        X = indicator([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]])
        with pytest.raises(ShapeMismatch):
            mca_fit(X, n_keep=3)

    def test_json_round_trip(self):
        X = indicator([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
        model = mca_fit(X, n_keep=2)
        from mergepipe.reduce import McaModel

        again = McaModel.from_json(model.to_json())
        assert np.allclose(again.column_axes, model.column_axes)
        assert np.allclose(
            mca_transform(again, X), mca_transform(model, X), atol=1e-12
        )


def test_pca_json_round_trip():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(15, 4))
    model = pca_fit(X, n_keep=3)
    from mergepipe.reduce import PcaModel

    again = PcaModel.from_json(model.to_json())
    assert np.allclose(again.components, model.components)
    assert np.allclose(pca_transform(again, X), pca_transform(model, X), atol=1e-12)


class TestExplainedCurve:
    def test_forced_arithmetic(self):
        from mergepipe.reduce import PcaModel

        model = PcaModel(
            mean=np.zeros(2),
            scale=np.ones(2),
            components=np.eye(2),
            eigenvalues=np.array([3.0, 1.0]),
            total_variance=4.0,
        )
        assert explained_curve(model) == [(1, 0.75), (2, 1.0)]
