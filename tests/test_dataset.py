import csv
import dataclasses
import datetime as dt
import io
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergepipe import dataset
from mergepipe.dataset import (
    CACHE_SUFFIX,
    DatasetSchema,
    DealFrame,
    DealRecord,
    GeneratorConfig,
    SplitSpec,
    csv_header,
    generate_frame,
    generate_synthetic,
    load_deals_cached,
    load_deals_csv,
    sentiment_matrix,
    temporal_split,
    write_deals_csv,
)
from mergepipe.errors import (
    BadConfig,
    BadSentiment,
    DuplicateId,
    EmptySide,
    MalformedRow,
    MissingSentiment,
    UnknownCategory,
)


def _write_deals_csv_rows(path, deals, schema):
    """Row-wise reference writer: one csv.writer row per DealRecord, each
    float as repr(float(v)), None and an absent sentiment path as empty cells.
    Rows end in "\\n", but cells are quoted as a "\\r\\n" writer quotes them,
    so a cell holding "\\r" is quoted as one holding "\\n" is."""

    def cell(v):
        return "" if v is None else repr(float(v))

    def writerow(fh, cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(cells)
        fh.write(buf.getvalue()[: -len("\r\n")] + "\n")

    with open(path, "w", newline="") as fh:
        writerow(fh, csv_header(schema))
        for r in deals:
            sent = [""] * schema.sentiment_length if r.sentiment is None else [
                repr(float(v)) for v in r.sentiment
            ]
            writerow(
                fh,
                [r.deal_id, r.announce_date.isoformat()]
                + [cell(v) for v in r.numeric]
                + ["" if v is None else v for v in r.categorical]
                + sent
                + [str(r.label)]
            )


def assert_writes_like_rows(tmp_path, deals, schema):
    """write_deals_csv, given the records or their frame, writes the reference's bytes."""
    expected = tmp_path / "rows.csv"
    _write_deals_csv_rows(expected, deals, schema)
    for given_as in (deals, DealFrame.of(deals, schema)):
        out = tmp_path / "columns.csv"
        write_deals_csv(out, given_as, schema)
        assert out.read_bytes() == expected.read_bytes()


def tiny_schema(sent_len=4):
    return DatasetSchema(
        numeric_names=("tic_ebitda", "premium"),
        categorical_names=("region",),
        categorical_levels=(("US", "EU"),),
        sentiment_length=sent_len,
    )


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")


HEADER = "deal_id,announce_date,tic_ebitda,premium,region,s000,s001,s002,s003,label"


class TestLoadCsv:
    def test_well_formed_rows(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(
            f,
            [
                HEADER,
                "a,2015-01-02,1.5,0.2,US,0.1,0.2,0.3,0.4,0",
                "b,2016-03-04,2.5,0.1,EU,0.0,0.0,0.0,0.1,1",
                "c,2017-05-06,3.5,0.3,US,-0.5,0.5,-0.5,0.5,0",
            ],
        )
        deals = load_deals_csv(f, tiny_schema())
        assert [d.deal_id for d in deals] == ["a", "b", "c"]
        assert deals[0].numeric == (1.5, 0.2)
        assert deals[1].label == 1

    def test_empty_cell_is_missing(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,,0.2,US,0.1,0.2,0.3,0.4,0"])
        deals = load_deals_csv(f, tiny_schema())
        assert deals[0].numeric == (None, 0.2)

    def test_sentiment_out_of_range(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,1.0,0.2,US,0.1,1.5,0.3,0.4,0"])
        with pytest.raises(BadSentiment):
            load_deals_csv(f, tiny_schema())

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-1.0000001"])
    def test_non_finite_or_out_of_range_sentiment_rejected(self, tmp_path, cell):
        # min and max alone let a NaN through in most positions
        for pos in range(4):
            cells = ["0.1", "0.2", "0.3", "0.4"]
            cells[pos] = cell
            f = tmp_path / "deals.csv"
            write_csv(f, [HEADER, f"a,2015-01-02,1.0,0.2,US,{','.join(cells)},0"])
            with pytest.raises(BadSentiment, match="deal a: sentiment value outside"):
                load_deals_csv(f, tiny_schema())

    def test_sentiment_converted_to_floats(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,1.0,0.2,US,-1,1,0.25,0,0"])
        [deal] = load_deals_csv(f, tiny_schema())
        assert deal.sentiment == (-1.0, 1.0, 0.25, 0.0)
        assert all(type(v) is float for v in deal.sentiment)

    def test_no_sentiment_columns(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, ["deal_id,announce_date,tic_ebitda,premium,region,label",
                      "a,2015-01-02,1.0,0.2,US,0"])
        [deal] = load_deals_csv(f, tiny_schema(sent_len=0))
        assert deal.sentiment is None

    def test_all_empty_sentiment_is_absent(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,1.0,0.2,US,,,,,0"])
        deals = load_deals_csv(f, tiny_schema())
        assert deals[0].sentiment is None

    def test_partial_sentiment_rejected(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,1.0,0.2,US,0.1,,0.3,0.4,0"])
        with pytest.raises(BadSentiment):
            load_deals_csv(f, tiny_schema())

    def test_column_count_mismatch(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,1.0,0.2,US,0.1,0.2,0.3,0"])
        with pytest.raises(MalformedRow):
            load_deals_csv(f, tiny_schema())

    @pytest.mark.parametrize(
        "row, column, cell",
        [
            ("a,2015-01-02,abc,0.2,US,0.1,0.2,0.3,0.4,0", "tic_ebitda", "abc"),
            ("a,2020-13-45,1.0,0.2,US,0.1,0.2,0.3,0.4,0", "announce_date", "2020-13-45"),
            ("a,2015-01-02,1.0,0.2,US,0.1,abc,0.3,0.4,0", "s001", "abc"),
            ("a,2015-01-02,1.0,0.2,US,0.1,0.2,0.3,0.4,yes", "label", "yes"),
        ],
    )
    def test_unparsable_cell_names_line_and_column(self, tmp_path, row, column, cell):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "z,2014-01-02,1.0,0.2,EU,0.1,0.2,0.3,0.4,1", row])
        with pytest.raises(MalformedRow) as info:
            load_deals_csv(f, tiny_schema())
        assert str(info.value) == f"{f}:3: column {column!r} cannot parse {cell!r}"

    def test_unknown_category(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(f, [HEADER, "a,2015-01-02,1.0,0.2,ASIA,0.1,0.2,0.3,0.4,0"])
        with pytest.raises(UnknownCategory):
            load_deals_csv(f, tiny_schema())

    def test_duplicate_id(self, tmp_path):
        f = tmp_path / "deals.csv"
        write_csv(
            f,
            [
                HEADER,
                "a,2015-01-02,1.0,0.2,US,0.1,0.2,0.3,0.4,0",
                "a,2016-01-02,1.0,0.2,US,0.1,0.2,0.3,0.4,0",
            ],
        )
        with pytest.raises(DuplicateId):
            load_deals_csv(f, tiny_schema())

    def test_round_trip(self, tmp_path):
        cfg = GeneratorConfig(n_deals=30, missing_rate=0.2, sentiment_length=6)
        deals = generate_synthetic(cfg, seed=3)
        schema = cfg.schema()
        f = tmp_path / "out.csv"
        write_deals_csv(f, deals, schema)
        again = load_deals_csv(f, schema)
        assert again == deals
        f2 = tmp_path / "out2.csv"
        write_deals_csv(f2, again, schema)
        assert f.read_bytes() == f2.read_bytes()


QUOTING_SCHEMA = DatasetSchema(
    numeric_names=("n,0", 'n"1'),
    categorical_names=("c\n0",),
    categorical_levels=(("plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf"),),
    sentiment_length=2,
)


class TestWriteCsv:
    @pytest.mark.parametrize("sentiment_length", [0, 121])
    def test_generator_data_matches_row_writer(self, tmp_path, sentiment_length):
        cfg = GeneratorConfig(n_deals=600, n_numeric=5, n_categorical=3,
                              levels_per_categorical=3, sentiment_length=sentiment_length,
                              missing_rate=0.2, sentiment_signal=0.5)
        assert_writes_like_rows(tmp_path, generate_synthetic(cfg, seed=21), cfg.schema())

    def test_quoted_ids_labels_and_names(self, tmp_path):
        deals = [
            DealRecord(deal_id, dt.date(2015, 1, 2), (1.5, None), (label,), path, i % 2)
            for i, (deal_id, label, path) in enumerate([
                ("plain", "plain", (0.5, -0.5)),
                ("with,comma", "a,b", None),
                ('with "quotes"', 'say "hi"', (1.0, -1.0)),
                ("two\nlines", "two\nlines", None),
                ("cr\rlf", "cr\rlf", (0.0, 0.25)),
                ("", None, None),
            ])
        ]
        assert_writes_like_rows(tmp_path, deals, QUOTING_SCHEMA)

    def test_carriage_returns_round_trip(self, tmp_path):
        # csv.reader ends a row at a bare "\r", so an unquoted one splits it
        schema = DatasetSchema(numeric_names=("n\r0",), categorical_names=("c\r",),
                               categorical_levels=(("x\ry", "\r", "z"),), sentiment_length=0)
        deals = [
            DealRecord(deal_id, dt.date(2015, 1, 2), (1.5,), (label,), None, i % 2)
            for i, (deal_id, label) in enumerate([
                ("a\rb", "x\ry"), ("\r", "\r"), ("c\r\nd", None), ("e\r", "z"),
            ])
        ]
        out = tmp_path / "cr.csv"
        write_deals_csv(out, deals, schema)
        assert list(load_deals_csv(out, schema)) == deals

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet='a ,"\r\né'), min_size=1, max_size=6, unique=True))
    def test_any_deal_id_writes_like_rows_and_loads_back(self, ids):
        deals = [DealRecord(deal_id, dt.date(2015, 1, 2), (1.5, None), (None,), None, 0)
                 for deal_id in ids]
        with tempfile.TemporaryDirectory() as tmp:
            assert_writes_like_rows(Path(tmp), deals, QUOTING_SCHEMA)
            out = Path(tmp) / "ids.csv"
            write_deals_csv(out, deals, QUOTING_SCHEMA)
            assert list(load_deals_csv(out, QUOTING_SCHEMA)) == deals

    def test_float_spellings_and_absent_sentiment(self, tmp_path):
        values = [(3, -7), (-0.0, 1e-05), (1e16, 5e-324), (True, 2**52 + 1), (None, -1e-300)]
        deals = [
            DealRecord(f"d{i}", dt.date(1999, 12, 31), num, ("plain",),
                       None if i % 2 else (-0.0, 5e-324), 0)
            for i, num in enumerate(values)
        ]
        assert_writes_like_rows(tmp_path, deals, QUOTING_SCHEMA)

    def test_nan_cell_is_written_empty(self, tmp_path):
        # the row writer wrote "nan"; a frame holds NaN as a missing cell and
        # writes it empty; both read back as missing
        deal = DealRecord("a", dt.date(2015, 1, 2), (float("nan"), 2.0), ("plain",), None, 1)
        out, rows = tmp_path / "columns.csv", tmp_path / "rows.csv"
        write_deals_csv(out, [deal], QUOTING_SCHEMA)
        _write_deals_csv_rows(rows, [deal], QUOTING_SCHEMA)
        assert out.read_text().splitlines()[-1] == "a,2015-01-02,,2.0,plain,,,1"
        assert rows.read_text().splitlines()[-1] == "a,2015-01-02,nan,2.0,plain,,,1"
        for path in (out, rows):
            assert load_deals_csv(path, QUOTING_SCHEMA)[0].numeric == (None, 2.0)

    @staticmethod
    def peak_bytes(tmp_path, n_deals):
        cfg = GeneratorConfig(n_deals=n_deals, n_numeric=8, n_categorical=3,
                              sentiment_length=30, missing_rate=0.05)
        frame = generate_frame(cfg, seed=3)
        tracemalloc.start()
        try:
            write_deals_csv(tmp_path / f"{n_deals}.csv", frame, cfg.schema())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        # a writer that formats every row before writing holds 4x the text
        # at 4x the rows; the chunked one holds one chunk of rows either way
        assert self.peak_bytes(tmp_path, 6000) < 2 * self.peak_bytes(tmp_path, 1500)


def rec(deal_id, date, label=0):
    return DealRecord(deal_id, date, (1.0,), (), None, label)


class TestTemporalSplit:
    def test_cutoff(self):
        deals = [rec("a", dt.date(2018, 5, 1)), rec("b", dt.date(2019, 3, 2))]
        train, test = temporal_split(deals, SplitSpec(cutoff_date=dt.date(2019, 1, 1)))
        assert [r.deal_id for r in train] == ["a"]
        assert [r.deal_id for r in test] == ["b"]

    def test_all_before_cutoff_raises(self):
        deals = [rec("a", dt.date(2018, 5, 1)), rec("b", dt.date(2018, 6, 1))]
        with pytest.raises(EmptySide):
            temporal_split(deals, SplitSpec(cutoff_date=dt.date(2019, 1, 1)))

    def test_partition_property(self):
        cfg = GeneratorConfig(n_deals=200, sentiment_length=0)
        deals = generate_synthetic(cfg, seed=11)
        train, test = temporal_split(deals, SplitSpec(cutoff_date=dt.date(2015, 1, 1)))
        ids = sorted(r.deal_id for r in train) + sorted(r.deal_id for r in test)
        assert sorted(ids) == sorted(r.deal_id for r in deals)
        assert all(r.announce_date < dt.date(2015, 1, 1) for r in train)
        assert all(r.announce_date >= dt.date(2015, 1, 1) for r in test)

    def test_fraction_override(self):
        deals = [rec(str(i), dt.date(2010 + i, 1, 1)) for i in range(10)]
        train, test = temporal_split(deals, SplitSpec(train_fraction_override=0.7))
        assert len(train) == 7 and len(test) == 3

    def test_spec_exclusivity(self):
        with pytest.raises(BadConfig):
            SplitSpec()
        with pytest.raises(BadConfig):
            SplitSpec(cutoff_date=dt.date(2019, 1, 1), train_fraction_override=0.5)

    def test_paper_counts(self):
        cfg = GeneratorConfig(
            n_deals=17_440,
            cancel_rate=0.1984,
            n_numeric=4,
            n_categorical=2,
            sentiment_length=0,
            cutoff_date=dt.date(2019, 1, 1),
            n_before_cutoff=16_525,
        )
        deals = generate_synthetic(cfg, seed=5)
        train, test = temporal_split(deals, SplitSpec(cutoff_date=dt.date(2019, 1, 1)))
        assert (len(train), len(test)) == (16_525, 915)


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_deals=1000, cancel_rate=0.2, sentiment_length=8)
        a = generate_synthetic(cfg, seed=7)
        b = generate_synthetic(cfg, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        cfg = GeneratorConfig(n_deals=100, sentiment_length=0)
        assert generate_synthetic(cfg, seed=1) != generate_synthetic(cfg, seed=2)

    def test_cancel_count_within_3_sigma(self):
        n, rate = 17_440, 0.1984
        cfg = GeneratorConfig(n_deals=n, cancel_rate=rate, n_numeric=2, sentiment_length=0)
        deals = generate_synthetic(cfg, seed=13)
        cancelled = sum(r.label for r in deals)
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(cancelled - n * rate) <= 3 * sigma

    def test_sentiment_bounds(self):
        cfg = GeneratorConfig(
            n_deals=300, sentiment_length=30, sentiment_signal=1.5, signal_strength=0.0
        )
        deals = generate_synthetic(cfg, seed=2)
        for r in deals:
            assert all(-1.0 <= v <= 1.0 for v in r.sentiment)

    def test_zero_signal_means_coincide(self):
        cfg = GeneratorConfig(n_deals=4000, signal_strength=0.0, sentiment_length=0)
        deals = generate_synthetic(cfg, seed=9)
        X = np.array([r.numeric for r in deals], dtype=float)
        y = np.array([r.label for r in deals])
        gap = np.abs(X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0))
        assert gap.max() < 0.25  # ~4.5 sigma of the mean-difference estimator

    def test_missing_rate_applied(self):
        cfg = GeneratorConfig(n_deals=500, missing_rate=0.3, sentiment_length=0)
        deals = generate_synthetic(cfg, seed=4)
        cells = [v for r in deals for v in r.numeric]
        frac = sum(v is None for v in cells) / len(cells)
        assert 0.25 < frac < 0.35

    def test_bad_config(self):
        with pytest.raises(BadConfig):
            GeneratorConfig(cancel_rate=0.0)
        with pytest.raises(BadConfig):
            GeneratorConfig(missing_rate=1.0)
        with pytest.raises(BadConfig):
            GeneratorConfig(signal_strength=-1.0)

    def test_config_json_round_trip(self):
        cfg = GeneratorConfig(
            n_deals=50,
            numeric_rank=3,
            cutoff_date=dt.date(2019, 1, 1),
            n_before_cutoff=40,
            levels_per_categorical=(2, 3, 2, 4),
        )
        assert GeneratorConfig.from_json(cfg.to_json()) == cfg


FRAME_SCHEMA = DatasetSchema(
    numeric_names=("n0", "n1", "n2"),
    categorical_names=("c0", "c1"),
    categorical_levels=(("X", "Y", "Z"), ("P", "Q")),
    sentiment_length=3,
)


@st.composite
def deal_lists(draw):
    """Records of FRAME_SCHEMA with random missing cells, paths and dates."""
    cell = st.none() | st.floats(allow_nan=False, allow_infinity=False)
    deals = []
    for i in range(draw(st.integers(0, 12))):
        deals.append(DealRecord(
            deal_id=f"d{i}",
            announce_date=draw(st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31))),
            numeric=tuple(draw(cell) for _ in FRAME_SCHEMA.numeric_names),
            categorical=tuple(
                draw(st.none() | st.sampled_from(levels))
                for levels in FRAME_SCHEMA.categorical_levels
            ),
            sentiment=draw(st.none() | st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
            label=draw(st.integers(0, 1)),
        ))
    return deals


class TestDealFrame:
    @settings(max_examples=80, deadline=None)
    @given(deal_lists())
    def test_rows_and_csv_round_trip(self, deals):
        frame = DealFrame.of(deals, FRAME_SCHEMA)
        assert list(frame) == deals
        assert frame == deals and deals == frame
        assert DealFrame.of(frame, FRAME_SCHEMA) is frame
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "deals.csv"
            write_deals_csv(path, deals, FRAME_SCHEMA)
            again = load_deals_csv(path, FRAME_SCHEMA)
            assert_writes_like_rows(Path(tmp), deals, FRAME_SCHEMA)
        assert isinstance(again, DealFrame)
        assert list(again) == deals

    @settings(max_examples=80, deadline=None)
    @given(deal_lists(), st.data())
    def test_take_matches_list_indexing(self, deals, data):
        frame = DealFrame.of(deals, FRAME_SCHEMA)
        n = len(deals)
        positions = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=8)) if n else []
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        start, stop = data.draw(st.integers(-n - 1, n + 1)), data.draw(st.integers(-n - 1, n + 1))
        assert list(frame[np.array(positions, dtype=np.int64)]) == [deals[i] for i in positions]
        assert list(frame[np.array(mask, dtype=bool)]) == [d for d, m in zip(deals, mask) if m]
        assert list(frame[start:stop]) == deals[start:stop]
        for i in positions:
            assert frame[np.int64(i)] == deals[i]
            assert frame[i - n] == deals[i - n]
        with pytest.raises(IndexError):
            frame[n]

    def test_columns(self):
        deals = [
            DealRecord("a", dt.date(2015, 1, 2), (1.5, None, 3.0), ("Z", None), None, 1),
            DealRecord(
                "b", dt.date(2016, 3, 4), (None, 2.0, 0.5), (None, "Q"), (0.1, -0.2, 1.0), 0
            ),
        ]
        frame = DealFrame.of(deals, FRAME_SCHEMA)
        np.testing.assert_array_equal(frame.numeric, [[1.5, np.nan, 3.0], [np.nan, 2.0, 0.5]])
        np.testing.assert_array_equal(frame.codes, [[2, -1], [-1, 1]])
        np.testing.assert_array_equal(frame.has_sentiment, [False, True])
        np.testing.assert_array_equal(frame.sentiment[1], [0.1, -0.2, 1.0])
        assert np.isnan(frame.sentiment[0]).all()
        np.testing.assert_array_equal(frame.labels, [1, 0])
        assert list(frame.deal_ids) == ["a", "b"]
        assert frame.dates.tolist() == [d.announce_date.toordinal() for d in deals]

    def test_unknown_category_rejected(self):
        deal = DealRecord("a", dt.date(2015, 1, 2), (1.0, 2.0, 3.0), ("W", None), None, 0)
        with pytest.raises(UnknownCategory, match="label 'W' not admissible for 'c0'"):
            DealFrame.of([deal], FRAME_SCHEMA)

    def test_unknown_category_in_a_later_row_rejected(self):
        good = DealRecord("a", dt.date(2015, 1, 2), (1.0, 2.0, 3.0), ("Z", "Q"), None, 0)
        bad = DealRecord("b", dt.date(2015, 1, 2), (1.0, 2.0, 3.0), (None, "X"), None, 0)
        with pytest.raises(UnknownCategory, match="label 'X' not admissible for 'c1'"):
            DealFrame.of([good, bad], FRAME_SCHEMA)

    def test_level_codes_are_derived_and_not_compared(self):
        assert FRAME_SCHEMA.level_codes == ({"X": 0, "Y": 1, "Z": 2}, {"P": 0, "Q": 1})
        doc = FRAME_SCHEMA.to_json()
        assert "level_codes" not in doc
        again = DatasetSchema.from_json(doc)
        assert again == FRAME_SCHEMA and hash(again) == hash(FRAME_SCHEMA)
        assert again.level_codes == FRAME_SCHEMA.level_codes

    def test_sentiment_matrix_names_first_deal_without_a_path(self):
        deals = [
            DealRecord(name, dt.date(2015, 1, 2), (1.0, 2.0, 3.0), ("X", "P"), path, 0)
            for name, path in (("a", (0.1, 0.2, 0.3)), ("b", None), ("c", None))
        ]
        with pytest.raises(MissingSentiment, match="deal b has no sentiment sequence"):
            sentiment_matrix(deals, FRAME_SCHEMA)
        np.testing.assert_array_equal(sentiment_matrix(deals[:1], FRAME_SCHEMA), [[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize(
        "spec", [SplitSpec(cutoff_date=dt.date(2015, 1, 1)), SplitSpec(train_fraction_override=0.7)]
    )
    def test_split_returns_the_kind_it_was_given(self, spec):
        cfg = GeneratorConfig(n_deals=60, missing_rate=0.2, sentiment_length=3)
        deals = generate_synthetic(cfg, seed=5)
        frame = DealFrame.of(deals, cfg.schema())
        train, test = temporal_split(deals, spec)
        frame_train, frame_test = temporal_split(frame, spec)
        assert isinstance(train, list) and isinstance(frame_train, DealFrame)
        assert frame_train == train and frame_test == test


CACHE_GEN = GeneratorConfig(n_deals=40, n_numeric=3, n_categorical=2, levels_per_categorical=3,
                            sentiment_length=5, missing_rate=0.2)
CACHE_SCHEMA = CACHE_GEN.schema()
# ids a CSV quotes, non-ASCII ids and an empty id; numbers whose bits a
# decimal round trip must keep
ODD_IDS = ("", "a,b", 'q"t', "x\r\ny", "é€𝄞")
ODD_NUMBERS = (-0.0, 5e-324, 1e308, 0.1)


def cache_csv(tmp_path):
    """A generated CSV with odd ids, odd numbers and absent sentiment paths."""
    deals = generate_synthetic(CACHE_GEN, seed=2)
    for i, deal_id in enumerate(ODD_IDS):
        deals[i] = dataclasses.replace(deals[i], deal_id=deal_id, sentiment=None,
                                       numeric=(ODD_NUMBERS[i % 4], None, ODD_NUMBERS[-1]))
    path = tmp_path / "deals.csv"
    write_deals_csv(path, deals, CACHE_SCHEMA)
    return path


def cache_of(path):
    return path.with_name(path.name + CACHE_SUFFIX)


def assert_same_frame(got, want):
    """Equal bit for bit in every column, dtypes and shapes included."""
    assert got.schema == want.schema
    assert got.deal_ids.dtype == want.deal_ids.dtype == object
    assert got.deal_ids.tolist() == want.deal_ids.tolist()
    for name in ("dates", "numeric", "codes", "sentiment", "has_sentiment", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def deny_write(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


class Parses(list):
    """Paths load_deals_csv parsed, in order; setting ``fail`` makes it raise."""

    fail = False


@pytest.fixture()
def parses(monkeypatch):
    calls = Parses()
    real = dataset.load_deals_csv

    def counted(path, schema):
        if calls.fail:
            raise AssertionError("parsed on a cache hit")
        calls.append(path)
        return real(path, schema)

    monkeypatch.setattr(dataset, "load_deals_csv", counted)
    return calls


class TestCache:
    def test_hit_equals_a_fresh_parse_bit_for_bit(self, tmp_path, parses):
        path = cache_csv(tmp_path)
        fresh = load_deals_csv(path, CACHE_SCHEMA)
        assert np.isnan(fresh.numeric).any() and not fresh.has_sentiment.all()
        assert_same_frame(load_deals_cached(path, CACHE_SCHEMA), fresh)
        assert cache_of(path).is_file() and len(parses) == 1
        parses.fail = True
        hit = load_deals_cached(str(path), CACHE_SCHEMA)
        assert_same_frame(hit, fresh)
        assert hit.deal_ids[: len(ODD_IDS)].tolist() == list(ODD_IDS)
        assert np.signbit(hit.numeric[0, 0]) and hit.numeric[1, 0] == 5e-324

    def test_edited_cell_with_size_and_mtime_restored_misses(self, tmp_path, parses):
        path = cache_csv(tmp_path)
        before = load_deals_cached(path, CACHE_SCHEMA)
        stat = path.stat()
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:-1] + (b"1" if lines[1].endswith(b"0") else b"0")
        path.write_bytes(b"\n".join(lines))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        after = load_deals_cached(path, CACHE_SCHEMA)
        assert len(parses) == 2 and after.labels[0] != before.labels[0]
        assert_same_frame(after, load_deals_csv(path, CACHE_SCHEMA))
        parses.fail = True
        assert_same_frame(load_deals_cached(path, CACHE_SCHEMA), after)

    def test_schema_with_reordered_levels_misses(self, tmp_path, parses):
        path = cache_csv(tmp_path)
        load_deals_cached(path, CACHE_SCHEMA)
        levels = (CACHE_SCHEMA.categorical_levels[0][::-1],) + CACHE_SCHEMA.categorical_levels[1:]
        reordered = dataclasses.replace(CACHE_SCHEMA, categorical_levels=levels)
        frame = load_deals_cached(path, reordered)
        assert len(parses) == 2
        assert_same_frame(frame, load_deals_csv(path, reordered))
        assert not np.array_equal(frame.codes, load_deals_csv(path, CACHE_SCHEMA).codes)

    def test_format_change_misses(self, tmp_path, parses, monkeypatch):
        path = cache_csv(tmp_path)
        load_deals_cached(path, CACHE_SCHEMA)
        monkeypatch.setattr(dataset, "CACHE_FORMAT", dataset.CACHE_FORMAT + 1)
        load_deals_cached(path, CACHE_SCHEMA)
        assert len(parses) == 2

    @staticmethod
    def huge_rows_cache(path):
        """A cache under the right key whose sizes block claims 10**12 rows,
        with block headers that agree and no data behind them."""
        out = io.BytesIO()
        out.write(dataset._CACHE_MAGIC + dataset._cache_key(path, CACHE_SCHEMA))
        np.lib.format.write_array(out, np.array([10**12, 0], dtype=np.int64), version=(1, 0))
        np.lib.format.write_array(out, np.zeros(0, dtype=np.uint8), version=(1, 0))
        np.lib.format.write_array_header_1_0(
            out, {"descr": "<i8", "fortran_order": False, "shape": (10**12,)})
        return out.getvalue()

    @staticmethod
    def with_id_ends(good, edit):
        """``good`` with ``edit`` applied to its block of id ends, the third block."""
        src, out = io.BytesIO(good), io.BytesIO()
        out.write(src.read(len(dataset._CACHE_MAGIC) + 32))
        for index in range(1 + len(dataset._cache_layout(CACHE_SCHEMA, 0, 0))):
            block = np.lib.format.read_array(src)
            np.lib.format.write_array(out, edit(block) if index == 2 else block, version=(1, 0))
        return out.getvalue()

    @pytest.mark.parametrize("damage", [
        "empty", "magic only", "half", "last byte cut", "one byte more", "garbage",
        "wrong block dtype", "wrong block shape", "huge row count", "id ends past the text",
        "id ends out of order",
    ])
    def test_damaged_cache_is_reparsed_and_rewritten(self, tmp_path, parses, damage):
        path = cache_csv(tmp_path)
        fresh = load_deals_cached(path, CACHE_SCHEMA)
        good = cache_of(path).read_bytes()
        head = len(dataset._CACHE_MAGIC) + 32
        damaged = {
            "empty": b"",
            "magic only": good[:head],
            "half": good[: len(good) // 2],
            "last byte cut": good[:-1],
            "one byte more": good + b"\0",
            "garbage": np.random.default_rng(0).bytes(len(good)),
            "wrong block dtype": good.replace(b"'descr': '<i8'", b"'descr': '<f8'", 1),
            # the sizes block declares (2,); (9,) keeps the header's length
            "wrong block shape": good.replace(b"'shape': (2,), }", b"'shape': (9,), }", 1),
            "huge row count": self.huge_rows_cache(path),
            "id ends past the text": self.with_id_ends(good, lambda ends: ends + 1),
            "id ends out of order": self.with_id_ends(
                good, lambda ends: ends[[0, 2, 1, *range(3, len(ends))]]),
        }[damage]
        assert damaged != good
        cache_of(path).write_bytes(damaged)
        assert_same_frame(load_deals_cached(path, CACHE_SCHEMA), fresh)
        assert len(parses) == 2 and cache_of(path).read_bytes() == good

    def test_cache_bytes_repeat_across_writes(self, tmp_path):
        path = cache_csv(tmp_path)
        load_deals_cached(path, CACHE_SCHEMA)
        first = cache_of(path).read_bytes()
        cache_of(path).unlink()
        other = tmp_path / "copy"
        other.mkdir()
        (other / "deals.csv").write_bytes(path.read_bytes())
        for csv_path in (path, other / "deals.csv"):
            load_deals_cached(csv_path, CACHE_SCHEMA)
            assert cache_of(csv_path).read_bytes() == first

    def test_unwritable_directory_still_loads(self, tmp_path, parses, monkeypatch):
        path = cache_csv(tmp_path)
        monkeypatch.setattr(dataset.tempfile, "mkstemp", deny_write)
        for _ in range(2):
            assert_same_frame(load_deals_cached(path, CACHE_SCHEMA),
                              load_deals_csv(path, CACHE_SCHEMA))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deals.csv"]

    def test_cache_path_taken_by_a_directory_still_loads(self, tmp_path, parses):
        path = cache_csv(tmp_path)
        cache_of(path).mkdir()
        assert_same_frame(load_deals_cached(path, CACHE_SCHEMA),
                          load_deals_csv(path, CACHE_SCHEMA))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deals.csv", cache_of(path).name]

    def test_file_changed_while_parsing_is_not_cached(self, tmp_path, monkeypatch):
        path = cache_csv(tmp_path)
        real = dataset.load_deals_csv

        def parse_then_append(csv_path, schema):
            frame = real(csv_path, schema)
            with open(csv_path, "a") as fh:
                fh.write("\n")
            return frame

        monkeypatch.setattr(dataset, "load_deals_csv", parse_then_append)
        load_deals_cached(path, CACHE_SCHEMA)
        assert not cache_of(path).exists()

    def test_directory_raises_as_the_parser_does(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            load_deals_cached(tmp_path, CACHE_SCHEMA)
        assert not cache_of(tmp_path).exists()

    def test_malformed_csv_raises_the_parser_error_and_is_not_cached(self, tmp_path):
        path = tmp_path / "deals.csv"
        write_csv(path, [HEADER, "a,2015-01-02,abc,0.2,US,0.1,0.2,0.3,0.4,0"])
        with pytest.raises(MalformedRow, match="column 'tic_ebitda' cannot parse 'abc'"):
            load_deals_cached(path, tiny_schema())
        assert not cache_of(path).exists()
