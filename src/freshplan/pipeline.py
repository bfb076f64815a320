"""Data ingestion, min-max scaling, sliding-window samples, synthetic corpus.

Every input CSV has a `Schema` (exact header, column kinds and bounds, key
columns).  `read_csv`, the one reader of all seven inputs, parses a file by its
schema and rejects a bad one with an InputError naming the file and line.

Forecasting windows pair 15 days (`INPUT_DAYS`) of scaled history with the
solar-term bit matrix of the following 7 days (`HORIZON_DAYS`) and those days'
scaled values as the target; both lengths are fixed, not config keys;
the window slides one day at a time.  `make_windows` returns them as one
`Windows` record of stacked arrays, one row per window (histories [n, 15],
terms [n, 7, 10], targets [n, 7]), built from strided views of the scaled
series and of its per-date term indices, so each date is looked up once.  A
slice of the record is the record of those windows.

A `SeriesFrame` is a first day and one value per consecutive day, so it cannot
hold a gap; the loader forward-fills one.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .solarterms import TERM_CODES, TERM_NAMES, TermBoundaryTable

INPUT_DAYS = 15
HORIZON_DAYS = 7


@dataclass
class SeriesFrame:
    """One product's daily series: `values[i]` is its value on `start` + i days."""

    product_id: str
    start: dt.date
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=i) for i in range(len(self.values))]

    def slice(self, start: int, stop: int) -> "SeriesFrame":
        """Days `start` to `stop` (non-negative), their values a view of these."""
        return SeriesFrame(self.product_id, self.start + dt.timedelta(days=start),
                           self.values[start:stop])


@dataclass
class Normalizer:
    """Min-max scaler; a degenerate range maps every value to 0."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if self.x_min > self.x_max:
            raise InputError(f"x_min {self.x_min} > x_max {self.x_max}")

    def normalize(self, x):
        span = self.x_max - self.x_min
        if span == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        return (np.asarray(x, dtype=np.float64) - self.x_min) / span

    def inverse(self, y):
        return self.x_min + np.asarray(y, dtype=np.float64) * (self.x_max - self.x_min)


def fit_normalizer(values) -> Normalizer:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise InputError("empty series")
    return Normalizer(float(arr.min()), float(arr.max()))


@dataclass
class Windows:
    """Every one-day-stride window of one series, one row per window."""

    histories: np.ndarray  # [n, 15] scaled history
    terms: np.ndarray      # [n, 7, 10] term bits of the target days
    targets: np.ndarray    # [n, 7] scaled target

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, key: slice) -> "Windows":
        if not isinstance(key, slice):
            raise TypeError(f"Windows take a slice, got {type(key).__name__}")
        return Windows(self.histories[key], self.terms[key], self.targets[key])


def make_windows(costs: SeriesFrame, table: TermBoundaryTable | None = None,
                 normalizer: Normalizer | None = None) -> Windows:
    """Build every one-day-stride window; values are scaled by `normalizer`
    (fit on the whole series when not supplied)."""
    table = table if table is not None else TermBoundaryTable()
    span = INPUT_DAYS + HORIZON_DAYS
    n = len(costs)
    if n < span:
        raise InputError(f"insufficient history: {n} days < {span}")
    if normalizer is None:
        normalizer = fit_normalizer(costs.values)
    scaled = normalizer.normalize(costs.values)
    window = np.lib.stride_tricks.sliding_window_view
    return Windows(
        histories=np.ascontiguousarray(window(scaled[:n - HORIZON_DAYS], INPUT_DAYS)),
        terms=TERM_CODES[window(table.term_indices(
            costs.start + dt.timedelta(days=INPUT_DAYS), n - INPUT_DAYS), HORIZON_DAYS)],
        targets=np.ascontiguousarray(window(scaled[INPUT_DAYS:], HORIZON_DAYS)),
    )


# -- CSV ingestion -----------------------------------------------------------

MAX_MAGNITUDE = 1e12
"""No number in an input CSV may exceed this in magnitude.  With every input at
most this, a top-32 plan's profit stays far below float overflow."""

DATE, TEXT, INTEGER, RANK = "ISO date", "text", "integer", "rank"
NUMBER, NONNEGATIVE = -math.inf, 0.0


@dataclass(frozen=True)
class Schema:
    """The rule for one input CSV: its exact header; each column's kind in header
    order, which is DATE (ISO YYYY-MM-DD), TEXT, INTEGER, RANK (the integers 1..n
    in file order) or a float lower bound (a finite number >= it; NUMBER for
    none); the `key` columns, whose values must be unique together; and the
    `label` of a duplicate, formatted with the row's values by column name."""

    header: tuple[str, ...]
    kinds: tuple
    key: tuple[str, ...]
    label: str


COSTS = Schema(("date", "product_id", "wholesale_cost"), (DATE, TEXT, NONNEGATIVE),
               ("date", "product_id"), "{product_id} on {date}")
SALES = Schema(("date", "product_id", "quantity_kg", "unit_price"),
               (DATE, TEXT, NONNEGATIVE, NONNEGATIVE), ("date", "product_id"), "{product_id} on {date}")
BOUNDARIES = Schema(("term_index", "month", "day"), (INTEGER,) * 3, ("term_index",),
                    "term_index {term_index}")
FORECAST = Schema(("product_id", "date", "predicted_cost"), (TEXT, DATE, NUMBER),
                  ("product_id", "date"), "{product_id} on {date}")
INTERVALS = Schema(("product_id", "level", "mean", "std", "lower", "upper"),
                   (TEXT, NUMBER, NUMBER, NUMBER, NONNEGATIVE, NONNEGATIVE), ("product_id",), "{product_id}")
RANKING = Schema(("rank", "product_id", "score", "d_plus", "d_minus"),
                 (RANK, TEXT, NUMBER, NUMBER, NUMBER), ("product_id",), "{product_id}")
# Every input by its default file name; predictions for `evaluate` follow FORECAST.
SCHEMAS = {"costs.csv": COSTS, "sales.csv": SALES, "boundaries.csv": BOUNDARIES,
           "forecast.csv": FORECAST, "intervals.csv": INTERVALS, "ranking.csv": RANKING}


def _column_parser(column: str, kind):
    """The function from a field of `column` to its value; it raises a
    ValueError whose message starts with the column's name."""
    if kind == TEXT:
        return str
    if kind == DATE:
        def parse_date(raw: str) -> dt.date:
            try:
                return dt.date.fromisoformat(raw)
            except ValueError:
                raise ValueError(f"{column} must be an ISO date (YYYY-MM-DD), got {raw!r}") from None
        return parse_date
    convert = int if kind in (INTEGER, RANK) else float
    low = -math.inf if convert is int else kind
    floor = max(low, -MAX_MAGNITUDE)
    what = ("an integer" if convert is int
            else "a finite number" + ("" if kind == NUMBER else f" >= {kind:g}"))

    def parse_number(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = math.nan
        if floor <= value <= MAX_MAGNITUDE:
            return value
        limit = f"at most {MAX_MAGNITUDE:g} in magnitude" if low <= value < math.inf else what
        raise ValueError(f"{column} must be {limit}, got {raw!r}")
    return parse_number


def read_csv(path, schema: Schema) -> list[tuple[int, tuple]]:
    """The rows of the input CSV at `path`, parsed by `schema`, each with the
    file line it ends on.

    A file that cannot be read, a header other than `schema.header` or no data
    rows is an InputError naming the file; a row with the wrong number of
    fields, a field not of its column's kind or a second row with the same key
    is one naming the file and line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(schema.header):
                raise InputError(f"{path}: expected header {','.join(schema.header)}, got {header}")
            rows = [(reader.line_num, fields) for fields in reader if fields]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no rows")
    parsers = [_column_parser(column, kind) for column, kind in zip(schema.header, schema.kinds)]
    key_at = [schema.header.index(column) for column in schema.key]
    rank_at = schema.kinds.index(RANK) if RANK in schema.kinds else None
    first_line, parsed = {}, []
    for line, fields in rows:
        if len(fields) != len(parsers):
            raise InputError(f"{path}:{line}: expected {len(parsers)} fields, got {len(fields)}")
        try:
            values = tuple([parse(raw) for parse, raw in zip(parsers, fields)])
        except ValueError as exc:
            raise InputError(f"{path}:{line}: {exc}") from None
        key = tuple([values[i] for i in key_at])
        if key in first_line:
            label = schema.label.format(**dict(zip(schema.header, values)))
            raise InputError(f"{path}:{line}: duplicate row for {label} "
                             f"(first at line {first_line[key]})")
        first_line[key] = line
        if rank_at is not None and values[rank_at] != len(parsed) + 1:
            raise InputError(f"{path}:{line}: {schema.header[rank_at]} must be {len(parsed) + 1} "
                             f"(ranks count 1..n in file order), got {fields[rank_at]!r}")
        parsed.append((line, values))
    return parsed


def load_boundaries(path) -> TermBoundaryTable:
    """Read a solar-term boundary override: header term_index,month,day and
    exactly one row per term index 0..23."""
    entries: dict[int, tuple[int, int]] = {}
    for line, (idx, month, day) in read_csv(path, BOUNDARIES):
        if not 0 <= idx < len(TERM_NAMES):
            raise InputError(f"{path}:{line}: term_index {idx} out of range 0..{len(TERM_NAMES) - 1}")
        entries[idx] = (month, day)
    if len(entries) != len(TERM_NAMES):
        raise InputError(f"{path}: need exactly one row per term_index 0..{len(TERM_NAMES) - 1}")
    try:
        return TermBoundaryTable([entries[i] for i in range(len(TERM_NAMES))])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_series(path: str, schema: Schema) -> list[dict[str, SeriesFrame]]:
    """Per-product frames of each value column of a `date,product_id,...` file,
    forward-filling interior gaps."""
    rows_by_pid: dict[str, list[tuple]] = {}
    for _, row in read_csv(path, schema):
        rows_by_pid.setdefault(row[1], []).append(row)
    frames: list[dict[str, SeriesFrame]] = [{} for _ in schema.header[2:]]
    for pid, rows in rows_by_pid.items():
        rows.sort(key=lambda row: row[0])
        # A row's values hold from its date up to the next row's date.
        spans = [(later[0] - row[0]).days for row, later in zip(rows, rows[1:])] + [1]
        for col, column_frames in enumerate(frames, start=2):
            column_frames[pid] = SeriesFrame(pid, rows[0][0],
                                             np.repeat([row[col] for row in rows], spans))
    return frames


def load_costs(path: str) -> dict[str, SeriesFrame]:
    """Read costs.csv into per-product frames keyed by product id."""
    return _load_series(path, COSTS)[0]


def load_sales(path: str) -> tuple[dict[str, SeriesFrame], dict[str, SeriesFrame]]:
    """Read sales.csv into (quantity frames, unit-price frames)."""
    return tuple(_load_series(path, SALES))


def fmt(value: float) -> str:
    """A number as every written CSV spells it: six decimals."""
    return f"{value:.6f}"


def write_csv(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV with LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_series(path: str, schema: Schema, *columns: dict[str, SeriesFrame]) -> None:
    """Write per-product frames as the value columns of a `date,product_id,...`
    file, one product's rows at a time."""
    def product_rows(pid: str):
        frames = [column[pid] for column in columns]
        days = [day.isoformat() for day in frames[0].dates]
        return zip(days, [pid] * len(days),
                   *([fmt(value) for value in frame.values.tolist()] for frame in frames))

    write_csv(path, schema.header,
              itertools.chain.from_iterable(map(product_rows, sorted(columns[0]))))


def write_costs(path: str, frames: dict[str, SeriesFrame]) -> None:
    _write_series(path, COSTS, frames)


def write_sales(path: str, qty: dict[str, SeriesFrame], price: dict[str, SeriesFrame]) -> None:
    _write_series(path, SALES, qty, price)


# -- synthetic corpus --------------------------------------------------------


@dataclass
class SyntheticParams:
    """Knobs of the generated corpus; defaults give a clearly seasonal, noisy market."""

    base_cost_range: tuple[float, float] = (3.0, 10.0)
    amplitude_fraction: tuple[float, float] = (0.35, 0.60)
    ar_rho: float = 0.6
    ar_sigma_fraction: float = 0.05
    markup_range: tuple[float, float] = (1.4, 1.9)
    price_noise_fraction: float = 0.04
    demand_intercept_range: tuple[float, float] = (60.0, 140.0)
    demand_slope_per_cost: tuple[float, float] = (2.0, 5.0)
    sales_noise_fraction: float = 0.05
    start_date: dt.date = field(default_factory=lambda: dt.date(2022, 1, 1))


def _term_profile(rng: np.random.Generator) -> np.ndarray:
    """Per-term seasonal level, additive in season and position so the two-hot
    encoding carries the full signal."""
    season_phase = rng.uniform(0.0, 2.0 * np.pi)
    pos_phase = rng.uniform(0.0, 2.0 * np.pi)
    idx = np.arange(24)
    season_wave = np.cos(2.0 * np.pi * (idx // 6) / 4.0 + season_phase)
    pos_wave = np.cos(2.0 * np.pi * (idx % 6) / 6.0 + pos_phase)
    return 0.7 * season_wave + 0.3 * pos_wave


def generate_synthetic(
    product_count: int,
    days: int,
    seed: int,
    table: TermBoundaryTable | None = None,
    params: SyntheticParams | None = None,
) -> tuple[dict[str, SeriesFrame], dict[str, SeriesFrame], dict[str, SeriesFrame]]:
    """Seeded synthetic (costs, sales quantities, sale prices) per product.

    Cost follows a per-product base level plus a solar-term profile plus AR(1)
    noise; price is cost times a markup plus noise; daily sales follow a
    downward-sloping linear demand curve in price, clamped at zero.  Emitted
    values are rounded to 6 decimals so CSV round-trips are exact.
    """
    if product_count < 1:
        raise InputError(f"product_count must be >= 1, got {product_count}")
    if days < 30:
        raise InputError(f"days must be >= 30, got {days}")
    table = table if table is not None else TermBoundaryTable()
    params = params if params is not None else SyntheticParams()

    start = params.start_date
    term_idx = table.term_indices(start, days)

    width = len(str(max(product_count - 1, 1)))
    costs, sales, prices = {}, {}, {}
    for p in range(product_count):
        pid = f"P{p:0{width}d}"
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2861, p]))

        base = rng.uniform(*params.base_cost_range)
        amplitude = rng.uniform(*params.amplitude_fraction) * base
        profile = _term_profile(rng)

        ar = np.zeros(days)
        shocks = rng.normal(0.0, params.ar_sigma_fraction * base, size=days)
        for t in range(1, days):
            ar[t] = params.ar_rho * ar[t - 1] + shocks[t]

        cost = base + amplitude * profile[term_idx] + ar
        cost = np.maximum(cost, 0.25 * base)

        markup = rng.uniform(*params.markup_range)
        price = cost * markup + rng.normal(0.0, params.price_noise_fraction * base, size=days)
        price = np.maximum(price, 0.05 * base)

        intercept = rng.uniform(*params.demand_intercept_range)
        slope = rng.uniform(*params.demand_slope_per_cost) * intercept / (20.0 * base)
        quantity = intercept - slope * price + rng.normal(
            0.0, params.sales_noise_fraction * intercept, size=days)
        quantity = np.maximum(quantity, 0.0)

        costs[pid] = SeriesFrame(pid, start, np.round(cost, 6))
        prices[pid] = SeriesFrame(pid, start, np.round(price, 6))
        sales[pid] = SeriesFrame(pid, start, np.round(quantity, 6))
    return costs, sales, prices
