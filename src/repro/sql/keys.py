"""Key coding: the one kernel under join, GROUP BY, DISTINCT and IN.

Every relational operator that compares whole key tuples — "do these
two rows carry the same key?" — first reduces each tuple to one
int64 code, so the operator itself is integer sorting, searching and
counting in numpy. This is the single sort-based mechanism for
duplicate removal, grouping and aggregation of Do, Graefe & Naughton
(arXiv 2010.00152): the code is the tuple's normalised sort key, the
same kernel ORDER BY and the window operator sort on.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.sortutil import SortColumn, dense_ranks, normalized_key
from repro.sql.vector import Vector


def key_codes(columns: Sequence[Vector], sql_equal: bool = False
              ) -> np.ndarray:
    """One int64 code per row: equal codes <=> equal key tuples.

    NULL is a key value of its own, all NaNs are one value and ``-0.0``
    is ``0.0`` — the equivalence GROUP BY and DISTINCT group by. The
    codes are the normalised sort key of the tuples ASC NULLS FIRST
    (:func:`repro.sortutil.normalized_key`), so they compare the way
    the key tuples compare lexicographically, NULL lowest.

    With ``sql_equal`` the codes follow ``=`` instead: a row with a
    NULL or NaN key part equals nothing, itself included, and gets -1.
    """
    key = normalized_key([SortColumn(vector.values, False, False,
                                     vector.validity)
                          for vector in columns], len(columns[0]))
    if key.dtype == np.uint64 and len(key) and key.max() >> np.uint64(63):
        key = dense_ranks(key)[0]  # int64 holds codes below 2**63
    codes = key.astype(np.int64)
    if sql_equal:
        for vector in columns:
            codes[~vector.validity] = -1
            if vector.values.dtype.kind == "f":
                codes[np.isnan(vector.values)] = -1
    return codes


def first_occurrence(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct codes 0, 1, ... in order of first appearance.

    Returns each row's group number and, per group, the index of its
    first row (ascending)."""
    distinct, first, inverse = np.unique(codes, return_index=True,
                                         return_inverse=True)
    by_appearance = np.argsort(first)
    number = np.empty(len(distinct), dtype=np.int64)
    number[by_appearance] = np.arange(len(distinct))
    return number[inverse], first[by_appearance]
