"""The 24 solar terms of the traditional Chinese calendar as a seasonal feature.

Each Gregorian date is mapped to one of the 24 terms via a (month, day) boundary
table, and each term is encoded as a 10-bit two-hot vector: 4 season bits
followed by 6 within-season position bits.  Seasons are blocks of six
consecutive terms starting at Li Chun.  `TERM_CODES` holds the 24 codes as
rows, so a run of dates is encoded by one table lookup per date
(`TermBoundaryTable.term_indices`) and one row index.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import InputError

TERM_NAMES = [
    "Li Chun", "Yu Shui", "Jing Zhe", "Chun Fen", "Qing Ming", "Gu Yu",
    "Li Xia", "Xiao Man", "Mang Zhong", "Xia Zhi", "Xiao Shu", "Da Shu",
    "Li Qiu", "Chu Shu", "Bai Lu", "Qiu Fen", "Han Lu", "Shuang Jiang",
    "Li Dong", "Xiao Xue", "Da Xue", "Dong Zhi", "Xiao Han", "Da Han",
]

# Approximate term start dates; the true astronomical instants drift +/- 1 day
# by year, which is immaterial to a 10-bit seasonal feature.
DEFAULT_BOUNDARIES = [
    (2, 4), (2, 19), (3, 6), (3, 21), (4, 5), (4, 20),
    (5, 6), (5, 21), (6, 6), (6, 21), (7, 7), (7, 23),
    (8, 8), (8, 23), (9, 8), (9, 23), (10, 8), (10, 23),
    (11, 8), (11, 22), (12, 7), (12, 22), (1, 6), (1, 20),
]

SEASON_COUNT = 4
TERMS_PER_SEASON = 6
VECTOR_WIDTH = SEASON_COUNT + TERMS_PER_SEASON


@dataclass(frozen=True)
class SolarTerm:
    """One of the 24 terms, ordered through the year starting at Li Chun."""

    index: int
    name: str

    @property
    def season(self) -> int:
        return self.index // TERMS_PER_SEASON

    @property
    def position_in_season(self) -> int:
        return self.index % TERMS_PER_SEASON


ALL_TERMS = tuple(SolarTerm(i, name) for i, name in enumerate(TERM_NAMES))


class TermBoundaryTable:
    """Maps (month, day) to a solar term: 24 start dates partitioning the year."""

    def __init__(self, entries: list[tuple[int, int]] | None = None):
        entries = list(entries) if entries is not None else list(DEFAULT_BOUNDARIES)
        if len(entries) != len(TERM_NAMES):
            raise InputError(f"boundary table needs {len(TERM_NAMES)} entries, got {len(entries)}")
        for month, day in entries:
            try:
                dt.date(2001, month, day)  # 2001 is non-leap; boundaries never fall on Feb 29
            except ValueError as exc:
                raise InputError(f"invalid boundary date ({month}, {day})") from exc
        self.entries = entries
        # Boundaries sorted by calendar position as month * 100 + day keys,
        # with the term index each one starts.
        ordered = sorted((100 * month + day, idx) for idx, (month, day) in enumerate(entries))
        self._keys = np.array([key for key, _ in ordered])
        self._terms = np.array([idx for _, idx in ordered])
        if len(set(self._keys.tolist())) != len(ordered):
            raise InputError("boundary table has duplicate dates")

    def term_indices(self, dates) -> np.ndarray:
        """Term index of each date: that of the last boundary at or before its
        (month, day).  Dates before the year's first boundary wrap around to
        the last term of the calendar year (index -1 of the sorted keys)."""
        keys = np.array([100 * day.month + day.day for day in dates], dtype=np.int64)
        return self._terms[np.searchsorted(self._keys, keys, side="right") - 1]

    def term_index_of(self, date: dt.date) -> int:
        return int(self.term_indices([date])[0])


def term_of_date(date: dt.date, table: TermBoundaryTable | None = None) -> SolarTerm:
    """Return the solar term whose [start, next start) interval contains the date."""
    table = table if table is not None else TermBoundaryTable()
    return ALL_TERMS[table.term_index_of(date)]


def encode_term(term: SolarTerm) -> np.ndarray:
    """Two-hot 10-bit encoding: one season bit plus one position-in-season bit."""
    if not 0 <= term.index < len(TERM_NAMES):
        raise InputError(f"term index {term.index} out of range")
    bits = np.zeros(VECTOR_WIDTH, dtype=np.float64)
    bits[term.season] = 1.0
    bits[SEASON_COUNT + term.position_in_season] = 1.0
    return bits


TERM_CODES = np.stack([encode_term(term) for term in ALL_TERMS])  # [24, 10], row = term index
TERM_CODES.flags.writeable = False


def encode_date_range(start: dt.date, days: int, table: TermBoundaryTable | None = None) -> np.ndarray:
    """Encode `days` consecutive dates from `start` as a days x 10 bit matrix."""
    if days < 1:
        raise InputError(f"days must be >= 1, got {days}")
    table = table if table is not None else TermBoundaryTable()
    return TERM_CODES[table.term_indices(start + dt.timedelta(days=i) for i in range(days))]
