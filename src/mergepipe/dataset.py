"""Deal data model: records, frames, schema, CSV I/O, temporal split, synthetic generator."""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import json
import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .codec import Json
from .errors import (
    BadConfig,
    BadSentiment,
    DuplicateId,
    EmptySide,
    MalformedRow,
    MissingSentiment,
    UnknownCategory,
)

SENTIMENT_LENGTH = 121
# index of the announcement day inside the sentiment window (90 prior, day 0,
# 30 after); only the generator uses it, the models treat the window as opaque
ANNOUNCE_INDEX = 90


@dataclass(frozen=True)
class DealRecord:
    """One deal: tabular features, optional sentiment path, binary outcome.

    label 0 = completed, 1 = cancelled.  Missing numeric/categorical cells
    are None; sentiment is either a full fixed-length tuple or None.
    """

    deal_id: str
    announce_date: dt.date
    numeric: tuple
    categorical: tuple
    sentiment: tuple | None
    label: int


@dataclass(frozen=True)
class DatasetSchema(Json):
    numeric_names: tuple[str, ...]
    categorical_names: tuple[str, ...]
    categorical_levels: tuple[tuple[str, ...], ...]  # aligned with names
    sentiment_length: int = SENTIMENT_LENGTH
    # per variable {label: code}, derived from categorical_levels once per schema
    level_codes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = list(self.numeric_names) + list(self.categorical_names)
        if len(set(names)) != len(names):
            raise BadConfig("schema names must be unique across numeric and categorical lists")
        if len(self.categorical_levels) != len(self.categorical_names):
            raise BadConfig("categorical_levels must align with categorical_names")
        for name, levels in zip(self.categorical_names, self.categorical_levels):
            if not levels:
                raise BadConfig(f"categorical variable {name!r} has no levels")
        if self.sentiment_length < 0:
            raise BadConfig("sentiment_length must be >= 0")
        codes = tuple({label: levels.index(label) for label in levels}
                      for levels in self.categorical_levels)
        object.__setattr__(self, "level_codes", codes)

    @property
    def n_numeric(self) -> int:
        return len(self.numeric_names)

    @property
    def n_categorical(self) -> int:
        return len(self.categorical_names)

    def level_index(self, var: int, label: str) -> int:
        try:
            return self.level_codes[var][label]
        except KeyError:
            raise UnknownCategory(
                f"label {label!r} not admissible for {self.categorical_names[var]!r}"
            ) from None


_COLUMNS = ("deal_ids", "dates", "numeric", "codes", "sentiment", "has_sentiment", "labels")


@dataclass(frozen=True, eq=False)
class DealFrame:
    """Deals as columns, the form every stage reads.

    Missing numeric cells are NaN and missing categorical codes -1; a deal
    without a sentiment path has has_sentiment False and a NaN sentiment row.
    Nothing writes into a frame's columns: a slice of a frame shares them.
    A frame is also a read-only sequence of DealRecord rows, None marking a
    missing cell: an integer index (numpy integers too) gives a row; a slice,
    an index array or a boolean mask gives ``take``; ``==`` compares rows.
    """

    schema: DatasetSchema
    deal_ids: np.ndarray  # (n,) str objects
    dates: np.ndarray  # (n,) int64 announce-date ordinals
    numeric: np.ndarray  # (n, n_numeric) float
    codes: np.ndarray  # (n, n_categorical) int64 level index
    sentiment: np.ndarray  # (n, sentiment_length) float
    has_sentiment: np.ndarray  # (n,) bool
    labels: np.ndarray  # (n,) int64, 1 = cancelled

    @classmethod
    def of(cls, deals, schema: DatasetSchema) -> "DealFrame":
        """A frame as is; a sequence of DealRecords converted to a frame."""
        if isinstance(deals, DealFrame):
            return deals
        n = len(deals)
        absent = (np.nan,) * schema.sentiment_length
        lookup = schema.level_codes
        try:
            codes = [
                [-1 if c is None else lookup[v][c] for v, c in enumerate(r.categorical)]
                for r in deals
            ]
        except KeyError:
            # level_index names the first label no level admits
            for r in deals:
                for v, c in enumerate(r.categorical):
                    if c is not None:
                        schema.level_index(v, c)
            raise
        return cls(
            schema=schema,
            deal_ids=np.array([r.deal_id for r in deals], dtype=object),
            dates=np.array([r.announce_date.toordinal() for r in deals], dtype=np.int64),
            # numpy reads None as NaN in a float array
            numeric=np.array([r.numeric for r in deals], dtype=np.float64).reshape(
                n, schema.n_numeric
            ),
            codes=np.array(codes, dtype=np.int64).reshape(n, schema.n_categorical),
            sentiment=np.array(
                [absent if r.sentiment is None else r.sentiment for r in deals], dtype=np.float64
            ).reshape(n, schema.sentiment_length),
            has_sentiment=np.array([r.sentiment is not None for r in deals], dtype=bool),
            labels=np.array([r.label for r in deals], dtype=np.int64),
        )

    def take(self, index) -> "DealFrame":
        """The rows at ``index``: a slice, an index array or a boolean mask."""
        return dataclasses.replace(self, **{c: getattr(self, c)[index] for c in _COLUMNS})

    def _row(self, i: int) -> DealRecord:
        levels = self.schema.categorical_levels
        return DealRecord(
            deal_id=self.deal_ids[i],
            announce_date=dt.date.fromordinal(int(self.dates[i])),
            numeric=tuple(None if math.isnan(v) else v for v in self.numeric[i].tolist()),
            categorical=tuple(
                None if c < 0 else levels[v][c] for v, c in enumerate(self.codes[i].tolist())
            ),
            sentiment=tuple(self.sentiment[i].tolist()) if self.has_sentiment[i] else None,
            label=int(self.labels[i]),
        )

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._row(range(len(self))[key])
        return self.take(key)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (DealFrame, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class SplitSpec:
    """Temporal split rule: exactly one of cutoff_date / train_fraction_override."""

    cutoff_date: dt.date | None = None
    train_fraction_override: float | None = None

    def __post_init__(self):
        if (self.cutoff_date is None) == (self.train_fraction_override is None):
            raise BadConfig("exactly one of cutoff_date / train_fraction_override must be set")
        if self.train_fraction_override is not None and not (
            0.0 < self.train_fraction_override < 1.0
        ):
            raise BadConfig("train_fraction_override must lie in (0, 1)")


def csv_header(schema: DatasetSchema) -> list:
    return (
        ["deal_id", "announce_date"]
        + list(schema.numeric_names)
        + list(schema.categorical_names)
        + [f"s{i:03d}" for i in range(schema.sentiment_length)]
        + ["label"]
    )


def _unparsable_cell(row, header, schema: DatasetSchema):
    """(column name, cell) of the first cell of ``row`` that does not parse."""
    parsers = (
        [None, dt.date.fromisoformat]
        + [float] * schema.n_numeric
        + [None] * schema.n_categorical
        + [float] * schema.sentiment_length
        + [int]
    )
    for name, parse, cell in zip(header, parsers, row):
        if parse is None or (parse is float and cell == ""):
            continue
        try:
            parse(cell)
        except ValueError:
            return name, cell
    raise AssertionError("every cell of the row parses")


def load_deals_csv(path, schema: DatasetSchema) -> "DealFrame":
    """Parse a deals CSV into a frame; empty cells denote missing values.

    Rows are parsed one at a time into flat float buffers, so the file's
    values are held as 8-byte doubles, never as Python floats or CSV rows.
    """
    expected = csv_header(schema)
    ids, seen = [], set()
    dates, codes, has_sentiment, labels = [], [], [], []
    numeric, sentiment = array("d"), array("d")
    n_num = schema.n_numeric
    n_cat = schema.n_categorical
    s_len = schema.sentiment_length
    absent = [math.nan] * s_len
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise MalformedRow(f"{path}: header does not match schema")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise MalformedRow(f"{path}:{lineno}: expected {len(expected)} cells, got {len(row)}")
            deal_id = row[0]
            if deal_id in seen:
                raise DuplicateId(f"{path}:{lineno}: duplicate deal_id {deal_id!r}")
            seen.add(deal_id)
            try:
                date = dt.date.fromisoformat(row[1]).toordinal()
                pos = 2
                num = [math.nan if cell == "" else float(cell) for cell in row[pos : pos + n_num]]
                pos += n_num
                cat = [
                    -1 if cell == "" else schema.level_index(var, cell)
                    for var, cell in enumerate(row[pos : pos + n_cat])
                ]
                pos += n_cat
                sent_cells = row[pos : pos + s_len]
                pos += s_len
                if not sent_cells or "" in sent_cells:
                    if any(sent_cells):
                        raise BadSentiment(f"{path}:{lineno}: partial sentiment sequence")
                    sent = absent
                else:
                    sent = list(map(float, sent_cells))
                    # a NaN or inf makes the sum non-finite; min and max alone miss a NaN
                    lo, hi = min(sent), max(sent)
                    if not (math.isfinite(sum(sent)) and -1.0 <= lo and hi <= 1.0):
                        raise BadSentiment(f"deal {deal_id}: sentiment value outside [-1, 1]")
                label = int(row[pos])
            except ValueError:
                column, cell = _unparsable_cell(row, expected, schema)
                raise MalformedRow(
                    f"{path}:{lineno}: column {column!r} cannot parse {cell!r}"
                ) from None
            if label not in (0, 1):
                raise MalformedRow(f"{path}:{lineno}: label must be 0 or 1")
            ids.append(deal_id)
            dates.append(date)
            numeric.extend(num)
            codes.append(cat)
            sentiment.extend(sent)
            has_sentiment.append(sent is not absent)
            labels.append(label)
    n = len(ids)
    return DealFrame(
        schema=schema,
        deal_ids=np.array(ids, dtype=object),
        dates=np.array(dates, dtype=np.int64),
        numeric=np.frombuffer(numeric, dtype=np.float64).reshape(n, n_num),
        codes=np.array(codes, dtype=np.int64).reshape(n, n_cat),
        sentiment=np.frombuffer(sentiment, dtype=np.float64).reshape(n, s_len),
        has_sentiment=np.array(has_sentiment, dtype=bool),
        labels=np.array(labels, dtype=np.int64),
    )


# rows formatted per write: the writer holds one chunk of text beyond the
# frame; 256 rows left a small run's peak RSS higher than a row-wise writer
WRITE_ROWS = 64
# a string cell holding one of these is quoted; csv.reader ends a row at a
# bare "\r" as at "\n", so both line-end characters need quotes
_QUOTABLE = re.compile(r'[,"\r\n]')


def _csv_cell(text: str) -> str:
    """``text`` as a ``csv.writer(lineterminator="\\r\\n")`` cell: quoted,
    with its quotes doubled, when it holds ``,``, ``"``, ``\\r`` or ``\\n``."""
    if not _QUOTABLE.search(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _float_cells(block: np.ndarray, blank: np.ndarray) -> list:
    """One comma-joined text per row of ``block``: ``repr`` of each value,
    an empty cell where ``blank``."""
    width = block.shape[1]
    cells = list(map(repr, block.ravel().tolist()))
    for i in np.flatnonzero(blank).tolist():
        cells[i] = ""
    return [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]


def write_deals_csv(path, deals, schema: DatasetSchema) -> None:
    """Write deals, a frame or DealRecords, as the CSV ``load_deals_csv`` reads.

    Records are converted once with ``DealFrame.of``.  The rows are then
    formatted from the frame's columns, ``WRITE_ROWS`` at a time: each
    chunk's numeric and sentiment blocks take one ``repr`` pass over their
    values and each line one ``",".join``, so memory holds the frame plus one
    chunk of text, whatever the row count.  Floats are written as
    ``repr(float(v))``; missing numeric and categorical cells (NaN, code -1)
    and the cells of an absent sentiment path are empty; string cells (the
    header, deal ids, level labels) are quoted as a ``\\r\\n`` ``csv.writer``
    quotes them.
    """
    frame = DealFrame.of(deals, schema)
    # level texts by code + 1, so a missing code (-1) reads the empty cell
    levels = [("",) + tuple(map(_csv_cell, lv)) for lv in schema.categorical_levels]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_cell, csv_header(schema))) + "\n")
        for start in range(0, len(frame), WRITE_ROWS):
            part = frame.take(slice(start, start + WRITE_ROWS))
            columns = [
                list(map(_csv_cell, part.deal_ids.tolist())),
                [dt.date.fromordinal(d).isoformat() for d in part.dates.tolist()],
            ]
            if schema.n_numeric:
                columns.append(_float_cells(part.numeric, np.isnan(part.numeric)))
            if schema.n_categorical:
                columns.append([",".join([lv[c + 1] for lv, c in zip(levels, row)])
                                for row in part.codes.tolist()])
            if schema.sentiment_length:
                absent = np.broadcast_to(~part.has_sentiment[:, None], part.sentiment.shape)
                columns.append(_float_cells(part.sentiment, absent))
            columns.append(list(map(str, part.labels.tolist())))
            fh.write("".join(",".join(cells) + "\n" for cells in zip(*columns)))


def temporal_split(deals, spec: SplitSpec):
    """Partition by announce date; input order preserved within each side.

    A frame splits into two frames, a sequence of records into two lists.
    """
    frame = isinstance(deals, DealFrame)
    dates = deals.dates if frame else np.array([r.announce_date.toordinal() for r in deals])
    if spec.cutoff_date is not None:
        in_train = dates < spec.cutoff_date.toordinal()
    else:
        n_train = int(round(spec.train_fraction_override * len(deals)))
        in_train = np.zeros(len(deals), dtype=bool)
        in_train[np.argsort(dates, kind="stable")[:n_train]] = True
    if frame:
        train, test = deals[in_train], deals[~in_train]
    else:
        train = [r for r, keep in zip(deals, in_train) if keep]
        test = [r for r, keep in zip(deals, in_train) if not keep]
    if not len(train) or not len(test):
        raise EmptySide(f"split produced sizes ({len(train)}, {len(test)})")
    return train, test


# -- synthetic generator -----------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig(Json):
    """Ground-truth-controlled deal universe.

    signal_strength separates the label-conditional numeric means (0 means
    labels carry no tabular information); sentiment_signal adds a
    label-dependent post-announcement drift to the sentiment path.
    numeric_rank, when set, draws the numeric block from an exactly
    rank-limited factor model.  n_before_cutoff pins how many deals get
    dates before cutoff_date, so split sizes are exactly controllable.
    """

    n_deals: int = 1000
    cancel_rate: float = 0.2
    n_numeric: int = 8
    n_categorical: int = 4
    levels_per_categorical: tuple[int, ...] | int = 2
    sentiment_length: int = SENTIMENT_LENGTH
    missing_rate: float = 0.0
    signal_strength: float = 1.0
    sentiment_signal: float = 0.0
    numeric_rank: int | None = None
    date_start: dt.date = dt.date(2001, 1, 1)
    date_end: dt.date = dt.date(2020, 10, 30)
    cutoff_date: dt.date | None = None
    n_before_cutoff: int | None = None

    def __post_init__(self):
        if self.n_deals < 1:
            raise BadConfig("n_deals must be >= 1")
        if not (0.0 < self.cancel_rate < 1.0):
            raise BadConfig("cancel_rate must lie in (0, 1)")
        if not (0.0 <= self.missing_rate < 1.0):
            raise BadConfig("missing_rate must lie in [0, 1)")
        if self.signal_strength < 0 or self.sentiment_signal < 0:
            raise BadConfig("signal strengths must be >= 0")
        if self.n_numeric < 1:
            raise BadConfig("n_numeric must be >= 1")
        if self.numeric_rank is not None and not (1 <= self.numeric_rank <= self.n_numeric):
            raise BadConfig("numeric_rank must lie in [1, n_numeric]")
        if (self.n_before_cutoff is None) != (self.cutoff_date is None):
            raise BadConfig("cutoff_date and n_before_cutoff must be set together")
        if self.n_before_cutoff is not None and not (0 < self.n_before_cutoff < self.n_deals):
            raise BadConfig("n_before_cutoff must lie strictly inside (0, n_deals)")
        if self.date_end <= self.date_start:
            raise BadConfig("date_end must be after date_start")

    def levels(self) -> tuple:
        if isinstance(self.levels_per_categorical, int):
            counts = [self.levels_per_categorical] * self.n_categorical
        else:
            counts = list(self.levels_per_categorical)
            if len(counts) != self.n_categorical:
                raise BadConfig("levels_per_categorical list must match n_categorical")
        if any(c < 2 for c in counts):
            raise BadConfig("every categorical variable needs >= 2 levels")
        return tuple(tuple(f"L{j}" for j in range(c)) for c in counts)

    def schema(self) -> DatasetSchema:
        return DatasetSchema(
            numeric_names=tuple(f"num_{i:02d}" for i in range(self.n_numeric)),
            categorical_names=tuple(f"cat_{i:02d}" for i in range(self.n_categorical)),
            categorical_levels=self.levels(),
            sentiment_length=self.sentiment_length,
        )


def _ar1_paths(rng, n, length, rho=0.9, sigma=0.12):
    paths = np.empty((n, length))
    paths[:, 0] = rng.normal(0.0, sigma, size=n)
    innov_scale = sigma * np.sqrt(1.0 - rho * rho)
    for t in range(1, length):
        paths[:, t] = rho * paths[:, t - 1] + rng.normal(0.0, innov_scale, size=n)
    return paths


def generate_frame(config: GeneratorConfig, seed: int) -> DealFrame:
    """Deterministic label-conditional deal universe as a frame; see GeneratorConfig.

    Every block is drawn as a column array, so no DealRecord is built;
    ``write_deals_csv`` writes the frame in row chunks.
    """
    rng = np.random.default_rng(seed)
    n = config.n_deals
    labels = (rng.random(n) < config.cancel_rate).astype(np.int64)

    # numeric block: class means mu0 = 0, mu1 = signal_strength * unit vector
    direction = rng.normal(size=config.n_numeric)
    direction /= np.linalg.norm(direction)
    shift = config.signal_strength * direction
    if config.numeric_rank is None:
        numeric = rng.normal(size=(n, config.n_numeric))
    else:
        loadings = rng.normal(size=(config.numeric_rank, config.n_numeric))
        latent = rng.normal(size=(n, config.numeric_rank))
        numeric = latent @ loadings / np.sqrt(config.numeric_rank)
    numeric = numeric + labels[:, None] * shift[None, :]

    # categorical block: label-1 level probabilities are a tilted copy of the
    # label-0 ones; the tilt magnitude follows signal_strength
    levels = config.levels()
    cat_probs = []
    for lev in levels:
        base = 0.35 + rng.random(len(lev))
        base /= base.sum()
        tilt = rng.normal(size=len(lev))
        tilted = base * np.exp(np.clip(config.signal_strength, 0.0, 3.0) * 0.5 * tilt)
        tilted /= tilted.sum()
        cat_probs.append((base, tilted))
    cat_draws = np.empty((n, config.n_categorical), dtype=np.int64)
    for v, (p0, p1) in enumerate(cat_probs):
        u = rng.random(n)
        cum0 = np.cumsum(p0)
        cum1 = np.cumsum(p1)
        cat_draws[:, v] = np.where(
            labels == 1, np.searchsorted(cum1, u), np.searchsorted(cum0, u)
        )
        np.clip(cat_draws[:, v], 0, len(levels[v]) - 1, out=cat_draws[:, v])

    # sentiment: smooth AR(1) path with a label-dependent drift after the
    # announcement day, clipped to [-1, 1]
    if config.sentiment_length > 0:
        length = config.sentiment_length
        # announcement sits 90/120 of the way through the default window;
        # shorter windows keep that proportion
        announce = min(ANNOUNCE_INDEX, int(round(0.75 * (length - 1))))
        paths = _ar1_paths(rng, n, length)
        tail = length - announce
        if tail > 1 and config.sentiment_signal > 0:
            ramp = np.arange(tail) / (tail - 1)
            drift = np.where(labels == 1, -1.0, 1.0)[:, None] * config.sentiment_signal * ramp
            paths[:, announce:] += drift
        paths = np.clip(paths, -1.0, 1.0)
    else:
        paths = None

    # dates: uniform over the configured range; when a cutoff is pinned, the
    # first n_before_cutoff deals (by index) fall strictly before it
    start = config.date_start.toordinal()
    end = config.date_end.toordinal()
    if config.cutoff_date is None:
        ordinals = rng.integers(start, end + 1, size=n)
    else:
        cut = config.cutoff_date.toordinal()
        if not (start < cut <= end):
            raise BadConfig("cutoff_date must lie inside the date range")
        k = config.n_before_cutoff
        ordinals = np.empty(n, dtype=np.int64)
        ordinals[:k] = rng.integers(start, cut, size=k)
        ordinals[k:] = rng.integers(cut, end + 1, size=n - k)

    # blank a fraction of tabular cells uniformly at random
    miss_num = rng.random((n, config.n_numeric)) < config.missing_rate
    miss_cat = rng.random((n, config.n_categorical)) < config.missing_rate

    return DealFrame(
        schema=config.schema(),
        deal_ids=np.array([f"deal_{i:06d}" for i in range(n)], dtype=object),
        dates=ordinals.astype(np.int64),
        numeric=np.where(miss_num, np.nan, numeric),
        codes=np.where(miss_cat, -1, cat_draws),
        sentiment=np.empty((n, 0)) if paths is None else paths,
        has_sentiment=np.full(n, paths is not None),
        labels=labels,
    )


def generate_synthetic(config: GeneratorConfig, seed: int) -> list:
    """``generate_frame``'s deals as a list of DealRecords.

    ``mergepipe generate`` builds no record: it writes the frame itself,
    which ``write_deals_csv`` formats from its columns in chunks of
    ``WRITE_ROWS`` rows, holding one chunk of text beyond the frame.
    """
    return list(generate_frame(config, seed))


def sentiment_matrix(deals, schema: DatasetSchema) -> np.ndarray:
    """(n, sentiment_length) sentiment block; raises if any deal lacks a sequence."""
    frame = DealFrame.of(deals, schema)
    absent = np.flatnonzero(~frame.has_sentiment)
    if absent.size:
        raise MissingSentiment(f"deal {frame.deal_ids[absent[0]]} has no sentiment sequence")
    return frame.sentiment


def write_schema_json(path, schema: DatasetSchema) -> None:
    with open(path, "w") as fh:
        json.dump(schema.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schema_json(path) -> DatasetSchema:
    try:
        with open(path) as fh:
            return DatasetSchema.from_json(json.load(fh))
    except (json.JSONDecodeError, BadConfig) as exc:
        raise BadConfig(f"schema {path}: {exc}") from None
