"""Sorting utilities shared by preprocessing, the window operator and SQL.

The paper reuses the database's parallel sort for every preprocessing
step (Section 5.3). This module is our equivalent: a stable multi-key
argsort over columns with ASC/DESC and NULLS FIRST/LAST options, with a
numpy fast path for numeric keys and a generic fallback for everything
else.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np


@dataclass
class SortColumn:
    """One ORDER BY criterion.

    ``values`` may be a numpy array (fast path) or any sequence.
    ``validity`` marks non-NULL entries; ``None`` means all valid.
    SQL default NULL placement is NULLS LAST for ASC and NULLS FIRST for
    DESC; callers encode their choice explicitly via ``nulls_last``.
    """

    values: Any
    descending: bool = False
    nulls_last: bool = True
    validity: Optional[np.ndarray] = None

    def default_nulls(self) -> "SortColumn":
        """Apply the SQL default placement for this direction."""
        return SortColumn(self.values, self.descending,
                          nulls_last=not self.descending,
                          validity=self.validity)


def _numeric_keys(column: SortColumn, n: int) -> List[np.ndarray]:
    """Lexsort key components (least significant last) for one column."""
    values = np.asarray(column.values)
    if column.validity is None:
        valid = np.ones(n, dtype=np.bool_)
    else:
        valid = np.asarray(column.validity, dtype=np.bool_)
    if np.issubdtype(values.dtype, np.integer):
        adjusted = values.astype(np.int64)
        if column.descending:
            adjusted = -adjusted
    else:
        adjusted = values.astype(np.float64)
        if column.descending:
            adjusted = -adjusted
    # NULL rows get a neutral value; placement is decided by null_rank.
    adjusted = np.where(valid, adjusted, 0)
    null_rank = np.where(valid, 0, 1 if column.nulls_last else -1)
    return [adjusted, null_rank]


def _is_numeric(values: Any) -> bool:
    if isinstance(values, np.ndarray):
        return (np.issubdtype(values.dtype, np.integer)
                or np.issubdtype(values.dtype, np.floating)
                or np.issubdtype(values.dtype, np.bool_))
    return False


def stable_argsort(columns: Sequence[SortColumn], n: int) -> np.ndarray:
    """Stable multi-key argsort; earlier columns are more significant."""
    if not columns:
        return np.arange(n, dtype=np.int64)
    if all(_is_numeric(col.values) for col in columns):
        keys: List[np.ndarray] = []
        # np.lexsort treats its LAST key as primary; feed reversed, with
        # each column's null-rank more significant than its value.
        for column in reversed(columns):
            value_key, null_rank = _numeric_keys(column, n)
            keys.append(value_key)
            keys.append(null_rank)
        return np.lexsort(keys).astype(np.int64)
    return _generic_argsort(columns, n)


class _Cell:
    """Total-order wrapper handling NULL placement and direction."""

    __slots__ = ("value", "descending", "nulls_last")

    def __init__(self, value: Any, descending: bool, nulls_last: bool) -> None:
        self.value = value
        self.descending = descending
        self.nulls_last = nulls_last

    def __lt__(self, other: "_Cell") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            if a is None and b is None:
                return False
            # NULLS LAST: None is greatest; NULLS FIRST: None is least.
            return (b is None) if self.nulls_last else (a is None)
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Cell) and self.value == other.value


def _generic_argsort(columns: Sequence[SortColumn], n: int) -> np.ndarray:
    def cell(col: SortColumn, i: int) -> _Cell:
        if col.validity is not None and not col.validity[i]:
            value = None
        else:
            value = col.values[i]
            if isinstance(value, np.generic):
                value = value.item()
        return _Cell(value, col.descending, col.nulls_last)

    def compare(i: int, j: int) -> int:
        for col in columns:
            a, b = cell(col, i), cell(col, j)
            if a < b:
                return -1
            if b < a:
                return 1
        return 0

    order = sorted(range(n), key=functools.cmp_to_key(compare))
    return np.asarray(order, dtype=np.int64)


def sorted_equal_runs(columns: Sequence[SortColumn], order: np.ndarray) -> np.ndarray:
    """Peer-group ids along ``order``: rows with equal sort keys share an id.

    Used for RANGE CURRENT ROW bounds, GROUPS frames and EXCLUDE
    TIES/GROUP (Section 2.2 / 4.7).
    """
    n = len(order)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    boundary = np.zeros(n, dtype=np.bool_)
    for col in columns:
        values = col.values
        validity = col.validity
        if _is_numeric(values):
            arr = np.asarray(values)[order]
            diff = arr[1:] != arr[:-1]
            if arr.dtype.kind == "f":  # all NaNs are peers
                nan = np.isnan(arr)
                diff &= ~(nan[1:] & nan[:-1])
            if validity is not None:
                v = np.asarray(validity, dtype=np.bool_)[order]
                diff = np.where(v[1:] | v[:-1], diff | (v[1:] != v[:-1]),
                                False)
            boundary[1:] |= diff
        else:
            prev = None
            first = True
            for pos, row in enumerate(order):
                null = validity is not None and not validity[row]
                value = None if null else values[row]
                if not first and value != prev:
                    boundary[pos] = True
                prev = value
                first = False
    return np.cumsum(boundary).astype(np.int64)
