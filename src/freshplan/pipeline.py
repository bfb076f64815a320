"""Data ingestion, min-max scaling, sliding-window samples, synthetic corpus.

Forecasting windows pair 15 days of scaled history with the solar-term bit
matrix of the following 7 days and those days' scaled values as the target;
the window slides one day at a time.  `make_windows` returns them as one
`Windows` record of stacked arrays, one row per window (histories [n, 15],
terms [n, 7, 10], targets [n, 7], anchor dates), built from strided views of
the scaled series and of its per-date term indices, so each date is looked up
once.  A slice of the record is the record of those windows.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .solarterms import TERM_CODES, TERM_NAMES, TermBoundaryTable

INPUT_DAYS = 15
HORIZON_DAYS = 7

COSTS_HEADER = ["date", "product_id", "wholesale_cost"]
SALES_HEADER = ["date", "product_id", "quantity_kg", "unit_price"]
BOUNDARIES_HEADER = ["term_index", "month", "day"]


@dataclass
class SeriesFrame:
    """One product's daily series on consecutive dates."""

    product_id: str
    dates: list[dt.date]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != len(self.values):
            raise InputError(f"{self.product_id}: {len(self.dates)} dates vs {len(self.values)} values")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if (cur - prev).days != 1:
                raise InputError(f"{self.product_id}: dates must be consecutive days ({prev} -> {cur})")

    def __len__(self) -> int:
        return len(self.dates)

    def slice(self, start: int, stop: int) -> "SeriesFrame":
        return SeriesFrame(self.product_id, self.dates[start:stop], self.values[start:stop])


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

    histories: np.ndarray        # [n, input_days] scaled history
    terms: np.ndarray            # [n, horizon, 10] term bits of the target days
    targets: np.ndarray          # [n, horizon] scaled target
    anchor_dates: list[dt.date]  # first target day of each window

    def __len__(self) -> int:
        return len(self.anchor_dates)

    def __getitem__(self, key: slice) -> "Windows":
        if not isinstance(key, slice):
            raise TypeError(f"Windows take a slice, got {type(key).__name__}")
        return Windows(self.histories[key], self.terms[key], self.targets[key],
                       self.anchor_dates[key])


def make_windows(
    costs: SeriesFrame,
    table: TermBoundaryTable | None = None,
    input_days: int = INPUT_DAYS,
    horizon: int = HORIZON_DAYS,
    normalizer: Normalizer | None = None,
) -> Windows:
    """Build every one-day-stride window; values are scaled by `normalizer`
    (fit on the whole series when not supplied)."""
    table = table if table is not None else TermBoundaryTable()
    span = input_days + horizon
    n = len(costs)
    if n < span:
        raise InputError(f"insufficient history: {n} days < {span}")
    if normalizer is None:
        normalizer = fit_normalizer(costs.values)
    scaled = normalizer.normalize(costs.values)
    window = np.lib.stride_tricks.sliding_window_view
    return Windows(
        histories=np.ascontiguousarray(window(scaled[:n - horizon], input_days)),
        terms=TERM_CODES[window(table.term_indices(costs.dates[input_days:]), horizon)],
        targets=np.ascontiguousarray(window(scaled[input_days:], horizon)),
        anchor_dates=costs.dates[input_days:n - horizon + 1],
    )


# -- CSV ingestion -----------------------------------------------------------


def read_rows(path, header: list[str]) -> list[tuple[int, dict[str, str]]]:
    """Each row of a CSV file with the file line it ends on; the header must
    equal `header` exactly."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != header:
                raise InputError(f"{path}: expected header {','.join(header)}, got {reader.fieldnames}")
            return [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_number(path, line: int, row: dict[str, str], column: str,
                minimum: float = -math.inf) -> float:
    """`row[column]` of a `read_rows` row as a finite float >= `minimum`;
    anything else is an InputError naming the file and line."""
    try:
        value = float(row[column])
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value >= minimum):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise InputError(f"{path}:{line}: {column} must be a finite number{bound}, got {row[column]!r}")
    return value


def read_integer(path, line: int, row: dict[str, str], column: str) -> int:
    """`row[column]` of a `read_rows` row as an int, or an InputError naming
    the file and line."""
    try:
        return int(row[column])
    except (TypeError, ValueError):
        raise InputError(f"{path}:{line}: {column} must be an integer, got {row[column]!r}") from None


def read_date(path, line: int, row: dict[str, str]) -> dt.date:
    """The `date` field of a `read_rows` row as an ISO date, or an InputError
    naming the file and line."""
    try:
        return dt.date.fromisoformat(row["date"])
    except (TypeError, ValueError):
        raise InputError(f"{path}:{line}: date must be an ISO date (YYYY-MM-DD), "
                         f"got {row['date']!r}") from None


def check_first(first_line: dict, key, path, line: int, label: str) -> None:
    """Record `key` as first seen at `line` of `path`; a second row with the
    same key is an InputError naming both lines."""
    if key in first_line:
        raise InputError(f"{path}:{line}: duplicate row for {label} "
                         f"(first at line {first_line[key]})")
    first_line[key] = line


def load_boundaries(path) -> TermBoundaryTable:
    """Read a solar-term boundary override: header term_index,month,day and
    exactly one row per term index 0..23."""
    entries: dict[int, tuple[int, int]] = {}
    first_line: dict[int, int] = {}
    for line, row in read_rows(path, BOUNDARIES_HEADER):
        idx = read_integer(path, line, row, "term_index")
        if not 0 <= idx < len(TERM_NAMES):
            raise InputError(f"{path}:{line}: term_index {idx} out of range 0..{len(TERM_NAMES) - 1}")
        check_first(first_line, idx, path, line, f"term_index {idx}")
        entries[idx] = (read_integer(path, line, row, "month"), read_integer(path, line, row, "day"))
    if len(entries) != len(TERM_NAMES):
        raise InputError(f"{path}: need exactly one row per term_index 0..{len(TERM_NAMES) - 1}")
    try:
        return TermBoundaryTable([entries[i] for i in range(len(TERM_NAMES))])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_series(path: str, header: list[str]) -> dict[str, dict[str, list[tuple[dt.date, float]]]]:
    """(date, value) pairs per value column and product of a `date,product_id,...` file.

    Every value must be a finite number >= 0 and each (date, product_id) may
    appear only once; anything else is an InputError naming the file and line.
    """
    columns = header[2:]
    records: dict[str, dict[str, list[tuple[dt.date, float]]]] = {col: {} for col in columns}
    first_line: dict[tuple[dt.date, str], int] = {}
    for line, row in read_rows(path, header):
        where, pid = f"{path}:{line}", row["product_id"]
        day = read_date(path, line, row)
        try:
            values = [float(row[col]) for col in columns]
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: malformed row: {exc}") from exc
        check_first(first_line, (day, pid), path, line, f"{pid} on {day}")
        for col, value in zip(columns, values):
            if not (math.isfinite(value) and value >= 0.0):
                raise InputError(f"{where}: {col} must be a finite number >= 0, got {row[col]!r}")
            records[col].setdefault(pid, []).append((day, value))
    return records


def _frames_from_records(records: dict[str, list[tuple[dt.date, float]]]) -> dict[str, SeriesFrame]:
    """Assemble per-product frames, forward-filling interior gaps."""
    frames = {}
    for pid, pairs in records.items():
        pairs.sort(key=lambda p: p[0])
        dates, values = [], []
        last_value = None
        cursor = pairs[0][0]
        by_date = dict(pairs)
        end = pairs[-1][0]
        while cursor <= end:
            if cursor in by_date:
                last_value = by_date[cursor]
            elif last_value is None:
                raise InputError(f"{pid}: leading gap at {cursor}")
            dates.append(cursor)
            values.append(last_value)
            cursor += dt.timedelta(days=1)
        frames[pid] = SeriesFrame(pid, dates, np.array(values))
    return frames


def load_costs(path: str) -> dict[str, SeriesFrame]:
    """Read costs.csv into per-product frames keyed by product id."""
    return _frames_from_records(_read_series(path, COSTS_HEADER)["wholesale_cost"])


def load_sales(path: str) -> tuple[dict[str, SeriesFrame], dict[str, SeriesFrame]]:
    """Read sales.csv into (quantity frames, unit-price frames)."""
    records = _read_series(path, SALES_HEADER)
    return _frames_from_records(records["quantity_kg"]), _frames_from_records(records["unit_price"])


def write_costs(path: str, frames: dict[str, SeriesFrame]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COSTS_HEADER)
        for pid in sorted(frames):
            frame = frames[pid]
            for day, value in zip(frame.dates, frame.values):
                writer.writerow([day.isoformat(), pid, f"{value:.6f}"])


def write_sales(path: str, qty: dict[str, SeriesFrame], price: dict[str, SeriesFrame]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SALES_HEADER)
        for pid in sorted(qty):
            q, p = qty[pid], price[pid]
            for day, quantity, unit_price in zip(q.dates, q.values, p.values):
                writer.writerow([day.isoformat(), pid, f"{quantity:.6f}", f"{unit_price:.6f}"])


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

    dates = [params.start_date + dt.timedelta(days=i) for i in range(days)]
    term_idx = table.term_indices(dates)

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

        costs[pid] = SeriesFrame(pid, dates, np.round(cost, 6))
        prices[pid] = SeriesFrame(pid, dates, np.round(price, 6))
        sales[pid] = SeriesFrame(pid, dates, np.round(quantity, 6))
    return costs, sales, prices
