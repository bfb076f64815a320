import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from oracles import term_indices_reference

from freshplan.errors import InputError
from freshplan.pipeline import load_boundaries
from freshplan.solarterms import (DEFAULT_BOUNDARIES, TERM_CODES, TERM_NAMES, TermBoundaryTable,
                                  encode_date_range)


def term_index(day: dt.date) -> int:
    return int(TermBoundaryTable().term_indices(day, 1)[0])


def test_published_encodings():
    # Li Chun, Qing Ming, Da Han
    assert TERM_CODES[0].tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert TERM_CODES[4].tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert TERM_CODES[23].tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 1]


def test_all_terms_two_hot_and_distinct():
    assert TERM_CODES.shape == (24, 10)
    seen = set()
    for bits in TERM_CODES:
        assert set(bits.tolist()) <= {0.0, 1.0}
        assert bits[:4].sum() == 1
        assert bits[4:].sum() == 1
        seen.add(tuple(bits.tolist()))
    assert len(seen) == 24


def test_season_and_position_decomposition():
    for index, bits in enumerate(TERM_CODES):
        assert np.flatnonzero(bits).tolist() == [index // 6, 4 + index % 6]


@pytest.mark.parametrize("day,expected", [
    (dt.date(2023, 2, 4), "Li Chun"),
    (dt.date(2023, 1, 25), "Da Han"),
    (dt.date(2023, 7, 1), "Xia Zhi"),
    (dt.date(2023, 1, 1), "Dong Zhi"),   # before the year's first boundary
    (dt.date(2024, 2, 29), "Yu Shui"),   # leap day
])
def test_term_of_date(day, expected):
    assert TERM_NAMES[term_index(day)] == expected


def test_full_year_visits_all_terms_in_cyclic_order():
    start = dt.date(2023, 2, 4)  # Li Chun
    indices = TermBoundaryTable().term_indices(start, 365).tolist()
    # no gaps: consecutive days move by 0 or to the next term mod 24
    for a, b in zip(indices, indices[1:]):
        assert b in (a, (a + 1) % 24)
    assert set(indices) == set(range(24))


@given(start=st.dates(dt.date(1900, 1, 1), dt.date(2100, 12, 31)), days=st.integers(1, 900),
       entries=st.one_of(st.just(DEFAULT_BOUNDARIES), st.permutations(DEFAULT_BOUNDARIES)))
@example(start=dt.date(2024, 2, 27), days=5, entries=DEFAULT_BOUNDARIES)  # Feb 29
@example(start=dt.date(2100, 2, 27), days=4, entries=DEFAULT_BOUNDARIES)  # no Feb 29
# Jan 1-5 precede the year's first boundary and wrap to the last term before them.
@example(start=dt.date(2022, 12, 20), days=40, entries=DEFAULT_BOUNDARIES)
@example(start=dt.date(1900, 1, 1), days=1, entries=DEFAULT_BOUNDARIES[::-1])
def test_term_indices_match_per_date_lookup(start, days, entries):
    table = TermBoundaryTable(entries)
    dates = [start + dt.timedelta(days=i) for i in range(days)]
    assert table.term_indices(start, days).tolist() == \
        term_indices_reference(table, dates).tolist()


def test_encode_date_range_boundary_crossing():
    rows = encode_date_range(dt.date(2023, 2, 3), 2)
    assert rows.shape == (2, 10)
    assert rows[0].tolist() == TERM_CODES[23].tolist()  # Da Han
    assert rows[1].tolist() == TERM_CODES[0].tolist()   # Li Chun


def test_encode_date_range_week_of_one_term():
    rows = encode_date_range(dt.date(2023, 2, 4), 7)
    assert rows.shape == (7, 10)
    assert np.all(rows == rows[0])


def test_encode_date_range_single_day():
    day = dt.date(2023, 9, 10)
    rows = encode_date_range(day, 1)
    assert rows.shape == (1, 10)
    assert rows[0].tolist() == TERM_CODES[term_index(day)].tolist()


def test_encode_date_range_rejects_zero_days():
    with pytest.raises(InputError):
        encode_date_range(dt.date(2023, 1, 1), 0)


@given(st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2060, 12, 31)))
def test_every_date_two_hot(day):
    bits = TERM_CODES[term_index(day)]
    assert bits[:4].sum() == 1 and bits[4:].sum() == 1


def test_csv_override_roundtrip(tmp_path):
    path = tmp_path / "bounds.csv"
    lines = ["term_index,month,day"]
    lines += [f"{i},{m},{d}" for i, (m, d) in enumerate(DEFAULT_BOUNDARIES)]
    path.write_text("\n".join(lines) + "\n")
    table = load_boundaries(str(path))
    year = (dt.date(2024, 1, 1), 366)
    assert table.term_indices(*year).tolist() == TermBoundaryTable().term_indices(*year).tolist()


def test_csv_override_rejects_bad_header(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InputError):
        load_boundaries(str(path))


def default_boundary_lines() -> list[str]:
    return [f"{i},{m},{d}" for i, (m, d) in enumerate(DEFAULT_BOUNDARIES)]


def test_csv_override_missing_file_rejected(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(InputError) as exc:
        load_boundaries(str(path))
    assert f"cannot read {path}" in str(exc.value)


def test_csv_override_non_integer_rejected(tmp_path):
    path = tmp_path / "bounds.csv"
    lines = default_boundary_lines()
    lines[3] = "x,3,21"
    path.write_text("term_index,month,day\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError) as exc:
        load_boundaries(str(path))
    assert f"{path}:5: term_index must be an integer, got 'x'" in str(exc.value)


def test_csv_override_duplicate_term_index_rejected(tmp_path):
    path = tmp_path / "bounds.csv"
    lines = default_boundary_lines() + ["7,5,22"]
    path.write_text("term_index,month,day\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError) as exc:
        load_boundaries(str(path))
    assert f"{path}:26: duplicate row for term_index 7 (first at line 9)" in str(exc.value)


def test_table_rejects_wrong_row_count():
    with pytest.raises(InputError):
        TermBoundaryTable([(2, 4)])
