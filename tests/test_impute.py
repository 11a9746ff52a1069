import dataclasses
import datetime as dt
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergepipe import kernels
from mergepipe.dataset import (
    DatasetSchema,
    DealFrame,
    DealRecord,
    GeneratorConfig,
    generate_synthetic,
)
from mergepipe.errors import NoComparableRow, TooFewRows
from mergepipe.impute import _neighbour_indices, fit_imputer, impute
from mergepipe.kernels import SEARCH_BYTES, search_rows, top_k


def schema_two_numeric():
    return DatasetSchema(
        numeric_names=("feature_a", "feature_b"),
        categorical_names=(),
        categorical_levels=(),
        sentiment_length=0,
    )


def make(deal_id, numeric, categorical=(), schema=None):
    return DealRecord(deal_id, dt.date(2015, 1, 1), tuple(numeric), tuple(categorical), None, 0)


def test_two_neighbour_mean():
    schema = schema_two_numeric()
    refs = [
        make("r0", (1.0, 10.0)),
        make("r1", (2.0, 20.0)),
        make("r2", (4.0, 40.0)),
        make("r3", (5.0, 50.0)),
    ]
    model = fit_imputer(refs, schema, k=2)
    [out] = impute(model, [make("q", (3.0, None))])
    assert out.numeric == (3.0, 30.0)


def test_complete_row_unchanged():
    schema = schema_two_numeric()
    refs = [make(f"r{i}", (float(i), float(i * 10))) for i in range(6)]
    model = fit_imputer(refs, schema, k=3)
    query = make("q", (2.5, 25.0))
    [out] = impute(model, [query])
    assert out == query


def test_categorical_majority_vote():
    schema = DatasetSchema(
        numeric_names=("x",),
        categorical_names=("region",),
        categorical_levels=(("US", "EU"),),
        sentiment_length=0,
    )
    refs = [
        make("r0", (0.0,), ("US",)),
        make("r1", (1.0,), ("US",)),
        make("r2", (2.0,), ("EU",)),
        make("r3", (3.0,), ("US",)),
        make("r4", (4.0,), ("EU",)),
    ]
    model = fit_imputer(refs, schema, k=5)
    [out] = impute(model, [make("q", (2.0,), (None,))])
    assert out.categorical == ("US",)


def test_bad_k():
    schema = schema_two_numeric()
    refs = [make("r0", (1.0, 2.0))]
    with pytest.raises(TooFewRows):
        fit_imputer(refs, schema, k=0)
    with pytest.raises(TooFewRows):
        fit_imputer(refs, schema, k=5)


def test_all_missing_column_gets_unit_scale():
    schema = schema_two_numeric()
    refs = [make(f"r{i}", (float(i), None)) for i in range(6)]
    model = fit_imputer(refs, schema, k=2)
    assert model.numeric_scale[1] == 1.0
    # nothing observed anywhere in that column: falls back to 0.0
    [out] = impute(model, [make("q", (3.0, None))])
    assert out.numeric == (3.0, 0.0)


def test_no_comparable_row():
    schema = schema_two_numeric()
    refs = [make(f"r{i}", (float(i), None)) for i in range(4)]
    model = fit_imputer(refs, schema, k=2)
    with pytest.raises(NoComparableRow):
        impute(model, [make("q", (None, 1.0))])
    # the first bad deal in input order is named, past the first search
    # block; 8192 references give blocks of 32 query rows
    refs = [make(f"r{i}", (float(i % 97), None)) for i in range(8192)]
    model = fit_imputer(refs, schema, k=2)
    step = search_rows(len(refs))
    assert step == 32
    queries = [make(f"q{i}", (float(i % 7), None)) for i in range(3 * step)]
    for i in (step + 5, step + 20):
        queries[i] = make(f"bad{i}", (None, 1.0))
    with pytest.raises(NoComparableRow, match=f"deal bad{step + 5} "):
        impute(model, queries)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_distance_still_shares_columns():
    # the column scale is 3.25e-150, so the query's scaled square overflows
    # and every distance of its row is inf or NaN; it still shares column 0
    # (and column 1) with the references, so it is imputed, not rejected
    schema = DatasetSchema(
        numeric_names=("x0", "x1", "x2"),
        categorical_names=("c0", "c1"),
        categorical_levels=(("a", "b", "c"), ("a", "b", "c")),
        sentiment_length=0,
    )
    refs = [
        make("r0", (0.0, 6.501152487804094e-150, None), (None, None)),
        make("r1", (0.0, 0.0, None), (None, None)),
        make("r2", (0.0, None, None), (None, None)),
    ]
    model = fit_imputer(refs, schema, k=1)
    query = make("q", (0.0, 43584.0, None), (None, None))
    # r0 and r1 are +inf, r2 NaN: the stable order takes r0
    assert _neighbour_indices(model, DealFrame.of([query], schema).numeric, ["q"]).tolist() == [[0]]
    [out] = impute(model, [query])
    assert out.numeric[:2] == (0.0, 43584.0) and out.numeric[2] is not None


class TestExactTopK:
    def test_matches_stable_argsort_with_ties_and_inf(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n_rows, n_ref = rng.integers(1, 40), rng.integers(1, 30)
            # small integers make ties at the k-th value common
            d2 = rng.integers(0, 4, size=(n_rows, n_ref)).astype(np.float64)
            d2[rng.random(d2.shape) < 0.2] = np.inf
            for k in range(1, n_ref + 1):
                expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
                assert np.array_equal(top_k(d2, k), expected)

    def test_equidistant_references_take_lower_index(self):
        schema = schema_two_numeric()
        # r4, r5 and r6 tie for the second slot and r4 must win it; in this
        # order an unguarded argpartition picks r6
        refs = [
            make("r0", (2.1, 50.0)),
            *(make(f"r{i}", (9.0, 1000.0)) for i in range(1, 4)),
            make("r4", (1.0, 10.0)),
            make("r5", (1.0, 30.0)),
            make("r6", (1.0, 70.0)),
        ]
        model = fit_imputer(refs, schema, k=2)
        [out] = impute(model, [make("q", (2.0, None))])
        assert out.numeric == (2.0, (50.0 + 10.0) / 2)


def impute_peak_bytes(n_ref, n_query, seed):
    """tracemalloc peak of imputing n_query incomplete rows against n_ref
    references; the model is fitted before tracing starts."""
    schema = schema_two_numeric()
    rng = np.random.default_rng(seed)
    refs = [make(f"r{i}", tuple(row)) for i, row in enumerate(rng.normal(size=(n_ref, 2)).tolist())]
    queries = [make(f"q{i}", (x, None)) for i, x in enumerate(rng.normal(size=n_query).tolist())]
    model = fit_imputer(refs, schema, k=5)
    tracemalloc.start()
    try:
        impute(model, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_search_peak_memory_is_per_block():
    # a whole-matrix search holds n_query x n_ref distances plus their sort
    # order; the blocked one holds a few search_rows(n_ref) x n_ref blocks
    n_ref = 2000
    n_query = 16 * search_rows(n_ref)
    full_matrix = 8 * n_query * n_ref
    assert impute_peak_bytes(n_ref, n_query, seed=9) < full_matrix / 2


def test_search_peak_memory_does_not_grow_with_references():
    # a fixed 512-row block against 20 000 references would alone be 82 MB
    assert impute_peak_bytes(20_000, 2_000, seed=10) < 8 * SEARCH_BYTES


def masked_universe(seed, n=120, missing=0.25):
    cfg = GeneratorConfig(
        n_deals=n,
        n_numeric=5,
        n_categorical=2,
        levels_per_categorical=3,
        missing_rate=missing,
        sentiment_length=0,
        signal_strength=0.5,
    )
    deals = generate_synthetic(cfg, seed=seed)
    return deals, cfg.schema()


class TestProperties:
    def test_idempotent(self):
        deals, schema = masked_universe(seed=21)
        model = fit_imputer(deals, schema, k=5)
        once = impute(model, deals)
        twice = impute(model, once)
        assert once == twice

    def test_observed_values_preserved(self):
        deals, schema = masked_universe(seed=22)
        model = fit_imputer(deals, schema, k=5)
        out = impute(model, deals)
        for before, after in zip(deals, out):
            for b, a in zip(before.numeric, after.numeric):
                if b is not None:
                    assert a == b
            for b, a in zip(before.categorical, after.categorical):
                if b is not None:
                    assert a == b
            assert all(v is not None for v in after.numeric)
            assert all(v is not None for v in after.categorical)

    def test_imputed_within_observed_range(self):
        deals, schema = masked_universe(seed=23)
        model = fit_imputer(deals, schema, k=4)
        out = impute(model, deals)
        ref = np.array(
            [[np.nan if v is None else v for v in r.numeric] for r in deals], dtype=float
        )
        lo = np.nanmin(ref, axis=0)
        hi = np.nanmax(ref, axis=0)
        for before, after in zip(deals, out):
            for j, (b, a) in enumerate(zip(before.numeric, after.numeric)):
                if b is None:
                    assert lo[j] - 1e-12 <= a <= hi[j] + 1e-12

    def test_k_equals_all_references_gives_column_mean(self):
        deals, schema = masked_universe(seed=24, n=40)
        model = fit_imputer(deals, schema, k=40)
        out = impute(model, deals)
        ref = np.array(
            [[np.nan if v is None else v for v in r.numeric] for r in deals], dtype=float
        )
        col_mean = np.nanmean(ref, axis=0)
        for before, after in zip(deals, out):
            for j, (b, a) in enumerate(zip(before.numeric, after.numeric)):
                if b is None:
                    assert a == pytest.approx(col_mean[j], abs=1e-12)

    def test_k_equals_all_references_gives_global_mode(self):
        deals, schema = masked_universe(seed=25, n=40)
        model = fit_imputer(deals, schema, k=40)
        out = impute(model, deals)
        for v in range(schema.n_categorical):
            observed = [r.categorical[v] for r in deals if r.categorical[v] is not None]
            counts = {lv: observed.count(lv) for lv in schema.categorical_levels[v]}
            top = max(counts.values())
            mode = next(lv for lv in schema.categorical_levels[v] if counts[lv] == top)
            for before, after in zip(deals, out):
                if before.categorical[v] is None:
                    assert after.categorical[v] == mode


def impute_loops(model, deals):
    """Per-row, per-cell reference fill: the same neighbours, then one
    ``vals.mean()`` and one ``bincount(...).argmax()`` per missing cell.
    Returns the filled records and how often each fallback was taken."""
    schema = model.schema
    frame = DealFrame.of(deals, schema)
    query_num, query_cat = frame.numeric, frame.codes
    incomplete = np.flatnonzero(
        ~np.isfinite(query_num).all(axis=1) | (query_cat < 0).any(axis=1)
    )
    used = {"mean": 0, "zero": 0, "mode": 0, "level0": 0, "pairwise": 0}
    result = list(deals)
    if incomplete.size == 0:
        return result, used
    nbrs = _neighbour_indices(model, query_num[incomplete], frame.deal_ids[incomplete])
    for row, i in enumerate(incomplete):
        nb_num = model.reference_numeric[nbrs[row]]
        nb_cat = model.reference_categorical[nbrs[row]]
        num, cat = query_num[i].copy(), query_cat[i].copy()
        for j in np.flatnonzero(~np.isfinite(query_num[i])):
            vals = nb_num[:, j]
            vals = vals[np.isfinite(vals)]
            if vals.size:
                num[j] = vals.mean()
                used["pairwise"] += vals.size >= 8  # numpy sums 8+ values pairwise
            elif np.isfinite(model.column_mean[j]):
                num[j] = model.column_mean[j]
                used["mean"] += 1
            else:
                num[j] = 0.0
                used["zero"] += 1
        for v in np.flatnonzero(query_cat[i] < 0):
            votes = nb_cat[:, v][nb_cat[:, v] >= 0]
            if votes.size:
                counts = np.bincount(votes, minlength=len(schema.categorical_levels[v]))
                cat[v] = int(np.argmax(counts))
            else:
                used["mode" if model.column_mode[v] >= 0 else "level0"] += 1
                cat[v] = max(model.column_mode[v], 0)
        result[i] = dataclasses.replace(
            deals[i],
            numeric=tuple(float(x) for x in num),
            categorical=tuple(schema.categorical_levels[v][int(c)] for v, c in enumerate(cat)),
        )
    return result, used


def sparse_universe(seed, n_ref=60, n_query=200):
    """References whose columns are observed at very different rates (one
    numeric and one categorical column never), so every fallback occurs, and
    values spread over nine decades, so summation order shows in the means."""
    schema = DatasetSchema(
        numeric_names=tuple(f"x{j}" for j in range(4)),
        categorical_names=("c0", "c1", "c2"),
        categorical_levels=(("a", "b", "c"), ("a", "b", "c"), ("a", "b")),
        sentiment_length=0,
    )
    rng = np.random.default_rng(seed)
    num_rate = np.array([0.95, 0.12, 0.8, 0.0])
    cat_rate = np.array([0.9, 0.08, 0.0])

    def rows(n, num_rate, cat_rate, prefix):
        values = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 6, size=(n, 4))
        num_seen = rng.random((n, 4)) < num_rate
        num_seen[:, 0] = True  # every row shares column 0 with most references
        cat_seen = rng.random((n, 3)) < cat_rate
        codes = rng.integers(0, 2, size=(n, 3))
        return [
            DealRecord(
                f"{prefix}{i}", dt.date(2015, 1, 1),
                tuple(float(x) if seen else None for x, seen in zip(values[i], num_seen[i])),
                tuple(schema.categorical_levels[v][c] if seen else None
                      for v, (c, seen) in enumerate(zip(codes[i], cat_seen[i]))),
                None, 0,
            )
            for i in range(n)
        ]

    refs = rows(n_ref, num_rate, cat_rate, "r")
    queries = rows(n_query, 0.5, 0.5, "q")
    return refs, queries, schema


def bits(deals):
    return np.array([d.numeric for d in deals], dtype=np.float64).view(np.int64)


class TestArrayFill:
    @pytest.mark.parametrize("k", [1, 5, 9, 16])
    def test_matches_per_cell_loop(self, k):
        refs, queries, schema = sparse_universe(seed=k)
        model = fit_imputer(refs, schema, k=k)
        expected, used = impute_loops(model, queries)
        got = impute(model, queries)
        assert got == expected
        assert np.array_equal(bits(got), bits(expected))
        assert all(type(x) is float for d in got for x in d.numeric)
        # the column-mean, zero, mode and first-level fallbacks all ran, and
        # for k >= 8 some means summed pairwise
        assert (used.pop("pairwise") > 0) == (k >= 8)
        assert min(used.values()) > 0, used

    def test_reference_terms_prepared_once_per_model(self, monkeypatch):
        calls = []
        real = kernels.prepare_reference

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "prepare_reference", counted)
        refs, queries, schema = sparse_universe(seed=3)
        model = fit_imputer(refs, schema, k=5)
        first = impute(model, queries[:10])
        second = impute(model, queries[:10])
        assert len(calls) == 1
        assert first == second
        # any constructor gets the terms: replace() builds a new model
        assert dataclasses.replace(model, k=3).reference_terms is not None
        assert len(calls) == 2

    @pytest.mark.parametrize("gap", ["numeric", "categorical"])
    def test_a_kind_without_gaps_runs_no_fill(self, gap, monkeypatch):
        refs, queries, schema = sparse_universe(seed=6)
        model = fit_imputer(refs, schema, k=5)
        frame = DealFrame.of(queries, schema)
        # keep only one kind of gap by completing the other kind
        if gap == "numeric":
            frame = dataclasses.replace(frame, codes=np.maximum(frame.codes, 0))
            idle = "_majority_votes"
        else:
            frame = dataclasses.replace(frame, numeric=np.nan_to_num(frame.numeric))
            idle = "_neighbour_means"
        expected, _ = impute_loops(model, frame)

        def no_cells(*args):
            raise AssertionError(f"{idle} ran with no cells to fill")

        monkeypatch.setattr(importlib.import_module("mergepipe.impute"), idle, no_cells)
        got = impute(model, frame)
        assert got == expected
        assert np.array_equal(bits(got), bits(expected))


@pytest.mark.parametrize("rows", [1, 8, 64])
def test_imputed_values_do_not_depend_on_the_rows_sharing_a_call(rows):
    # distance bits may depend on how many query rows share a product; the
    # neighbour sets, and so the filled values, must not
    cfg = GeneratorConfig(n_deals=300, n_numeric=20, n_categorical=10,
                          levels_per_categorical=3, sentiment_length=0, missing_rate=0.05,
                          signal_strength=2.0)
    frame = DealFrame.of(generate_synthetic(cfg, seed=7), cfg.schema())
    model = fit_imputer(frame.take(slice(0, 240)), cfg.schema(), k=5)
    whole = impute(model, frame)
    parts = [impute(model, frame.take(slice(i, i + rows))) for i in range(0, len(frame), rows)]
    numeric = np.concatenate([p.numeric for p in parts])
    assert np.array_equal(numeric.view(np.int64), whole.numeric.view(np.int64))
    assert np.array_equal(np.concatenate([p.codes for p in parts]), whole.codes)
    assert np.isfinite(whole.numeric).all() and (whole.codes >= 0).all()


finite_value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
num_cell = st.one_of(st.none(), finite_value)
cat_cell = st.one_of(st.none(), st.sampled_from(("a", "b", "c")))


@st.composite
def impute_case(draw):
    schema = DatasetSchema(
        numeric_names=("x0", "x1", "x2"),
        categorical_names=("c0", "c1"),
        categorical_levels=(("a", "b", "c"), ("a", "b", "c")),
        sentiment_length=0,
    )

    def deal(i, prefix):
        # column 0 always observed, so every query shares it with every reference
        numeric = (draw(finite_value), draw(num_cell), draw(num_cell))
        categorical = (draw(cat_cell), draw(cat_cell))
        return DealRecord(f"{prefix}{i}", dt.date(2015, 1, 1), numeric, categorical, None, 0)

    refs = [deal(i, "r") for i in range(draw(st.integers(1, 12)))]
    queries = [deal(i, "q") for i in range(draw(st.integers(1, 8)))]
    k = draw(st.integers(1, len(refs)))
    return refs, queries, schema, k


@settings(max_examples=60, deadline=None)
@given(impute_case())
def test_imputation_never_changes_observed_cells(case):
    refs, queries, schema, k = case
    out = impute(fit_imputer(refs, schema, k=k), queries)
    assert len(out) == len(queries)
    for before, after in zip(queries, out):
        assert after.deal_id == before.deal_id and after.label == before.label
        for b, a in zip(before.numeric + before.categorical, after.numeric + after.categorical):
            assert a is not None
            if b is not None:
                assert a == b
