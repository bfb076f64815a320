"""The 24 solar terms of the traditional Chinese calendar as a seasonal feature.

Each Gregorian date is mapped to the index of one of the 24 terms (named in
`TERM_NAMES`, starting at Li Chun) via a (month, day) boundary table, and each
term is encoded as a 10-bit two-hot vector: 4 season bits followed by 6
within-season position bits.  Seasons are blocks of six consecutive terms.
`TERM_CODES` holds the 24 codes as rows, so a run of days is encoded by one
array lookup (`TermBoundaryTable.term_indices`) and one row index.
"""

from __future__ import annotations

import datetime as dt

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

# Two-hot codes, row = term index: season bit i // 6, then position bit i % 6.
_INDEX = np.arange(len(TERM_NAMES))
TERM_CODES = np.concatenate([np.eye(SEASON_COUNT)[_INDEX // TERMS_PER_SEASON],
                             np.eye(TERMS_PER_SEASON)[_INDEX % TERMS_PER_SEASON]], axis=1)
TERM_CODES.flags.writeable = False


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

    def term_indices(self, start: dt.date, days: int) -> np.ndarray:
        """Term index of each of `days` consecutive dates from `start`: that of
        the last boundary at or before its (month, day).  Dates before the
        year's first boundary wrap around to the last term of the calendar year
        (index -1 of the sorted keys)."""
        d = np.datetime64(start, "D") + np.arange(days)
        m = d.astype("datetime64[M]")
        # Months since 1970-01 floor-mod 12 is the month less one, at any year.
        keys = 100 * (m.astype(np.int64) % 12 + 1) + (d - m).astype(np.int64) + 1
        return self._terms[np.searchsorted(self._keys, keys, side="right") - 1]


def encode_date_range(start: dt.date, days: int, table: TermBoundaryTable | None = None) -> np.ndarray:
    """Encode `days` consecutive dates from `start` as a days x 10 bit matrix."""
    if days < 1:
        raise InputError(f"days must be >= 1, got {days}")
    table = table if table is not None else TermBoundaryTable()
    return TERM_CODES[table.term_indices(start, days)]
