import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import windows_reference

from freshplan import pipeline
from freshplan.errors import InputError
from freshplan.pipeline import (
    Normalizer,
    SeriesFrame,
    fit_normalizer,
    generate_synthetic,
    load_costs,
    load_sales,
    make_windows,
    write_costs,
    write_sales,
)
from freshplan.solarterms import DEFAULT_BOUNDARIES, TermBoundaryTable, encode_date_range


MICRO_UNITS = st.integers(0, 10**12).map(lambda k: k / 1e6)  # exact at the writers' 6 decimals


def frame_of(values, start=dt.date(2023, 1, 1), pid="P"):
    return SeriesFrame(pid, start, np.asarray(values, dtype=float))


class TestNormalizer:
    def test_fit(self):
        n = fit_normalizer([0.0, 5.0, 10.0])
        assert (n.x_min, n.x_max) == (0.0, 10.0)

    def test_fit_singleton(self):
        n = fit_normalizer([3.0])
        assert (n.x_min, n.x_max) == (3.0, 3.0)

    def test_fit_plateau(self):
        n = fit_normalizer([2.5, 2.5, 7.5])
        assert (n.x_min, n.x_max) == (2.5, 7.5)

    def test_fit_empty_errors(self):
        with pytest.raises(InputError, match="empty series"):
            fit_normalizer([])

    def test_scale_points(self):
        n = Normalizer(0.0, 10.0)
        assert n.normalize(5.0) == 0.5
        assert n.normalize(0.0) == 0.0

    def test_degenerate_maps_to_zero(self):
        n = Normalizer(3.0, 3.0)
        assert n.normalize(3.0) == 0.0
        assert n.inverse(0.0) == 3.0

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.floats(0.0, 1.0))
    def test_inverse_roundtrip(self, lo, span, frac):
        n = Normalizer(lo, lo + span)
        x = lo + frac * span
        assert abs(n.inverse(n.normalize(x)) - x) <= 1e-12 * max(1.0, abs(x))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    def test_monotone_and_in_unit_interval(self, values):
        n = fit_normalizer(values)
        scaled = np.sort(n.normalize(np.sort(np.asarray(values))))
        assert np.all(np.diff(scaled) >= 0)
        assert np.all((scaled >= 0.0) & (scaled <= 1.0))


class TestWindows:
    def test_count_at_minimum_length(self):
        assert len(make_windows(frame_of(range(22)))) == 1

    def test_count_one_above_minimum(self):
        assert len(make_windows(frame_of(range(23)))) == 2

    def test_too_short_errors(self):
        with pytest.raises(InputError, match="insufficient history"):
            make_windows(frame_of(range(21)))

    @pytest.mark.parametrize("length", range(22, 61))
    def test_count_formula(self, length):
        assert len(make_windows(frame_of(range(length)))) == length - 21

    def test_window_contents_reproduce_source(self):
        frame = frame_of(np.arange(30.0))
        normalizer = fit_normalizer(frame.values)
        scaled = normalizer.normalize(frame.values)
        windows = make_windows(frame)
        for k in range(len(windows)):
            joined = np.concatenate([windows.histories[k], windows.targets[k]])
            assert np.array_equal(joined, scaled[k:k + 22])
            anchor = frame.start + dt.timedelta(days=k + 15)
            assert np.array_equal(windows.terms[k], encode_date_range(anchor, 7))
            assert windows.terms[k].shape == (7, 10)
            assert np.all(windows.terms[k].sum(axis=1) == 2)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(22, 400), start=st.dates(dt.date(2023, 9, 1), dt.date(2024, 3, 1)),
           shift=st.integers(-20, 20), seed=st.integers(0, 2**32 - 1))
    @example(length=22, start=dt.date(2023, 12, 14), shift=0, seed=0)  # targets Dec 29 - Jan 4
    @example(length=22, start=dt.date(2024, 2, 10), shift=0, seed=0)  # targets Feb 25 - Mar 2
    @example(length=22, start=dt.date(2024, 2, 10), shift=5, seed=1)
    def test_matches_per_window_reference(self, length, start, shift, seed):
        # shift 0 is the default table; others move every boundary by `shift` days.
        moved = [dt.date(2001, m, d) + dt.timedelta(days=shift) for m, d in DEFAULT_BOUNDARIES]
        entries = [(day.month, day.day) for day in moved]
        rng = np.random.default_rng(seed)
        frame = frame_of(rng.uniform(0.0, 10.0, length), start=start)
        # Fit on a prefix, as A7 does, so scaled values also fall outside [0, 1].
        normalizer = fit_normalizer(frame.values[:length // 2 + 1])
        windows = make_windows(frame, TermBoundaryTable(entries), normalizer=normalizer)
        reference = windows_reference(frame.start, normalizer.normalize(frame.values), entries, 15, 7)
        for arr in (windows.histories, windows.terms, windows.targets):
            assert arr.flags.c_contiguous
        cut = int(rng.integers(0, len(reference) + 1))
        for part, samples in ((windows, reference), (windows[:cut], reference[:cut]),
                              (windows[cut:], reference[cut:])):
            assert len(part) == len(samples)
            assert part.histories.shape == (len(samples), 15)
            assert part.terms.shape == (len(samples), 7, 10)
            assert part.targets.shape == (len(samples), 7)
            for k, (history, terms, target) in enumerate(samples):
                assert np.array_equal(part.histories[k], history)
                assert np.array_equal(part.terms[k], terms)
                assert np.array_equal(part.targets[k], target)

    def test_integer_index_rejected(self):
        with pytest.raises(TypeError):
            make_windows(frame_of(range(30)))[0]


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(2, 40, seed=7)
        b = generate_synthetic(2, 40, seed=7)
        for left, right in zip(a, b):
            for pid in left:
                assert np.array_equal(left[pid].values, right[pid].values)

    def test_costs_positive(self):
        costs, _, _ = generate_synthetic(5, 200, seed=3)
        for frame in costs.values():
            assert np.all(frame.values > 0)

    def test_price_sales_negatively_correlated(self):
        _, sales, prices = generate_synthetic(5, 400, seed=11)
        for pid in sales:
            corr = np.corrcoef(prices[pid].values, sales[pid].values)[0, 1]
            assert corr < 0

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            generate_synthetic(0, 40, seed=1)
        with pytest.raises(InputError):
            generate_synthetic(1, 10, seed=1)


class TestCsvRoundtrip:
    def test_costs_roundtrip(self, tmp_path):
        costs, sales, prices = generate_synthetic(3, 35, seed=5)
        path = tmp_path / "costs.csv"
        write_costs(str(path), costs)
        loaded = load_costs(str(path))
        assert sorted(loaded) == sorted(costs)
        for pid in costs:
            assert np.array_equal(loaded[pid].values, costs[pid].values)
            assert loaded[pid].dates == costs[pid].dates

    def test_sales_roundtrip(self, tmp_path):
        _, sales, prices = generate_synthetic(2, 35, seed=5)
        path = tmp_path / "sales.csv"
        write_sales(str(path), sales, prices)
        qty, price = load_sales(str(path))
        for pid in sales:
            assert np.array_equal(qty[pid].values, sales[pid].values)
            assert np.array_equal(price[pid].values, prices[pid].values)

    @given(st.dictionaries(
        st.text("ABCxyz019", min_size=1, max_size=4),
        st.tuples(st.dates(dt.date(2000, 1, 1), dt.date(2099, 1, 1)),
                  st.lists(st.tuples(MICRO_UNITS, MICRO_UNITS), min_size=1, max_size=12)),
        min_size=1, max_size=4))
    def test_write_load_roundtrip_property(self, series):
        """Finite non-negative values on 6 decimals survive write -> load exactly."""
        qty = {pid: frame_of([q for q, _ in rows], start, pid) for pid, (start, rows) in series.items()}
        price = {pid: frame_of([p for _, p in rows], start, pid) for pid, (start, rows) in series.items()}
        with tempfile.TemporaryDirectory() as tmp:
            write_costs(str(Path(tmp) / "costs.csv"), qty)
            write_sales(str(Path(tmp) / "sales.csv"), qty, price)
            costs = load_costs(str(Path(tmp) / "costs.csv"))
            loaded_qty, loaded_price = load_sales(str(Path(tmp) / "sales.csv"))
        for written, loaded in ((qty, costs), (qty, loaded_qty), (price, loaded_price)):
            assert sorted(loaded) == sorted(written)
            for pid, frame in written.items():
                assert loaded[pid].dates == frame.dates
                assert np.array_equal(loaded[pid].values, frame.values)

    def test_interior_gap_forward_filled(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text(
            "date,product_id,wholesale_cost\n"
            "2023-01-01,A,1.5\n"
            "2023-01-04,A,3.0\n")
        frame = load_costs(str(path))["A"]
        assert [d.day for d in frame.dates] == [1, 2, 3, 4]
        assert frame.values.tolist() == [1.5, 1.5, 1.5, 3.0]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("date,product,cost\n2023-01-01,A,1.0\n")
        with pytest.raises(InputError):
            load_costs(str(path))


def test_readme_file_formats_match_schemas():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## File formats", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for row in table.splitlines()[2:]:
        name, header, key, values = [cell.strip() for cell in row.strip("|").split("|")][:4]
        if key:  # the inputs; the other rows are outputs that no stage reads
            documented[name] = (header.strip("`"), key.strip("`"), values)
    assert {name: (h, k) for name, (h, k, _) in documented.items()} == {
        name: (",".join(schema.header), ",".join(schema.key))
        for name, schema in pipeline.SCHEMAS.items()}
    for name, schema in pipeline.SCHEMAS.items():  # each bounded or ranked column is named
        bounded = [column for column, kind in zip(schema.header, schema.kinds)
                   if kind in (pipeline.NONNEGATIVE, pipeline.RANK)]
        assert all(column in documented[name][2] for column in bounded), name
