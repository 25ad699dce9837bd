"""Sorting shared by preprocessing, the window operator and SQL.

The paper reuses the database's sort for every preprocessing step
(Section 5.3). Ours sorts on normalised keys (Do, Graefe & Naughton,
arXiv 2010.00152; layout in DESIGN.md §3a): each sort column becomes an
order-preserving unsigned code — its offset from the column minimum,
the complement from the maximum under DESC — with NULL placed first or
last, NaN after every number in both directions, ``-0.0`` equal to
``0.0`` and non-numeric values as dense ranks. The codes fold into one
unsigned key per row (dense ranks again where 64 bits would not hold
them), and one stable ``np.argsort`` of that key is the sort: numpy's
radix path when the key fits 16 bits. Equal keys are exactly peers,
which makes the key, taken ASC NULLS FIRST, the SQL key code of
:func:`repro.sql.keys.key_codes` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

_SIGN = np.uint64(1 << 63)
_WORD = 1 << 64
#: The narrower key dtypes, each with the bound it holds.
_NARROW = [(np.uint8, 1 << 8), (np.uint16, 1 << 16), (np.uint32, 1 << 32)]


@dataclass
class SortColumn:
    """One ORDER BY criterion.

    ``values`` may be a numpy array or any sequence.
    ``validity`` marks non-NULL entries; ``None`` means all valid.
    SQL default NULL placement is NULLS LAST for ASC and NULLS FIRST for
    DESC; callers encode their choice explicitly via ``nulls_last``.
    """

    values: Any
    descending: bool = False
    nulls_last: bool = True
    validity: Optional[np.ndarray] = None


def _ordered_bits(values: np.ndarray) -> np.ndarray:
    """uint64 images of numeric values that compare like the values."""
    if values.dtype.kind == "u":
        return values.astype(np.uint64)
    if values.dtype.kind in "ib":
        return np.asarray(values, dtype=np.int64).view(np.uint64) ^ _SIGN
    # Adding 0.0 turns -0.0 into 0.0. Then a negative float flips every
    # bit and a positive one its sign bit.
    bits = np.add(values, 0.0, dtype=np.float64).view(np.uint64)
    return bits ^ ((bits.view(np.int64) >> 63).view(np.uint64) | _SIGN)


def dense_ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each value's rank among the array's distinct values, and how
    many distinct values there are."""
    if values.dtype != object:
        distinct, ranks = np.unique(values, return_inverse=True)
        return ranks.astype(np.uint64), len(distinct)
    # np.unique on an object array sorts all n strings through
    # PyObject comparisons; sorting only the distinct ones measured
    # 20x faster on a low-cardinality key (l_returnflag, n = 60 000).
    items = values.tolist()
    rank = {value: i for i, value in enumerate(sorted(set(items)))}
    return (np.fromiter(map(rank.__getitem__, items), dtype=np.uint64,
                        count=len(items)), len(rank))


def _column_codes(column: SortColumn, n: int) -> Tuple[np.ndarray, int]:
    """One column's order-preserving codes and their bound: ``(codes,
    bound)`` with ``0 <= codes < bound``, ordered as the column sorts
    (direction, NULL placement, NaN last) and equal exactly for peers."""
    values = column.values
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    null = None if column.validity is None \
        else ~np.asarray(column.validity, dtype=np.bool_)
    if null is not None and not null.any():
        null = None
    nan = np.isnan(values) if values.dtype.kind == "f" else None
    if nan is not None:
        if null is not None:
            nan &= ~null
        if not nan.any():
            nan = None
    special = null if nan is None else nan if null is None else nan | null
    rows = None if special is None else np.flatnonzero(~special)
    ordinary = values if rows is None else values[rows]
    if len(ordinary):
        if ordinary.dtype.kind in "biuf":
            image = _ordered_bits(ordinary)
            low, high = image.min(), image.max()
            if int(high - low) + 3 > _WORD:  # no room left for NaN / NULL
                image, distinct = dense_ranks(image)
                low, high = np.uint64(0), np.uint64(distinct - 1)
        else:
            image, distinct = dense_ranks(ordinary)
            low, high = np.uint64(0), np.uint64(distinct - 1)
        image = high - image if column.descending else image - low
        bound = int(high - low) + 1
    else:
        image, bound = np.zeros(0, dtype=np.uint64), 0
    if rows is None:
        return image, bound
    codes = np.zeros(n, dtype=np.uint64)
    codes[rows] = image
    if nan is not None:  # after every number, both directions
        codes[nan] = bound
        bound += 1
    if null is not None:
        if column.nulls_last:
            codes[null] = bound
        else:
            codes[~null] += np.uint64(1)
        bound += 1
    return codes, bound


def normalized_key(columns: Sequence[SortColumn], n: int) -> np.ndarray:
    """One unsigned key per row, in the narrowest of uint8 / 16 / 32 /
    64 that holds it: keys compare the way the rows sort (earlier
    columns more significant) and are equal exactly for peers."""
    key = np.zeros(n, dtype=np.uint64)
    bound = 1  # every key is < bound
    for column in columns:
        codes, width = _column_codes(column, n)
        if bound * width > _WORD:
            key, bound = dense_ranks(key)
            if bound * width > _WORD:
                codes, width = dense_ranks(codes)
        key = key * np.uint64(width) + codes if bound > 1 else codes
        bound *= max(width, 1)
    for dtype, limit in _NARROW:
        if bound <= limit:
            return key.astype(dtype)
    return key


def stable_argsort(columns: Sequence[SortColumn], n: int) -> np.ndarray:
    """Stable multi-key argsort; earlier columns are more significant."""
    return np.argsort(normalized_key(columns, n), kind="stable")


def equal_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Run ids along already-sorted keys: 0 for the first run, +1 at
    every change."""
    ids = np.zeros(len(sorted_keys), dtype=np.int64)
    if len(sorted_keys):
        np.cumsum(sorted_keys[1:] != sorted_keys[:-1], out=ids[1:])
    return ids


def sorted_equal_runs(columns: Sequence[SortColumn], order: np.ndarray) -> np.ndarray:
    """Peer-group ids along ``order``: rows with equal sort keys share an id.

    Used for RANGE CURRENT ROW bounds, GROUPS frames and EXCLUDE
    TIES/GROUP (Section 2.2 / 4.7).
    """
    if not len(order) or not columns:
        return np.zeros(len(order), dtype=np.int64)
    n = len(columns[0].values)
    return equal_runs(normalized_key(columns, n)[order])


def sort_with_runs(columns: Sequence[SortColumn], n: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The stable sort order and the peer-group ids along it, from one
    normalised key."""
    key = normalized_key(columns, n)
    order = np.argsort(key, kind="stable")
    return order, equal_runs(key[order])
