"""Key coding: the one kernel under join, GROUP BY, DISTINCT, IN and
string ORDER BY.

Every relational operator that compares whole key tuples — "do these
two rows carry the same key?" — first reduces each tuple to one dense
int64 code, so the operator itself is integer sorting, searching and
counting in numpy. This is the single sort-based mechanism for
duplicate removal, grouping and aggregation of Do, Graefe & Naughton
(arXiv 2010.00152), with the sort done once per key column by
``np.unique``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.sql.vector import Vector

#: Codes are re-densified before a further key column could push them
#: past this bound (int64 holds 2**63 - 1).
_CODE_LIMIT = 1 << 62


def _ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each value's rank among the column's distinct values, and how
    many distinct values there are."""
    if values.dtype != object:
        distinct, ranks = np.unique(values, return_inverse=True)
        return ranks, len(distinct)
    # np.unique on an object array sorts all n strings through
    # PyObject comparisons; sorting only the distinct ones measured
    # 20x faster on a low-cardinality key (l_returnflag, n = 60 000).
    items = values.tolist()
    rank = {value: i for i, value in enumerate(sorted(set(items)))}
    return (np.fromiter(map(rank.__getitem__, items), dtype=np.int64,
                        count=len(items)), len(rank))


def key_codes(columns: Sequence[Vector], sql_equal: bool = False
              ) -> np.ndarray:
    """One int64 code per row: equal codes <=> equal key tuples.

    NULL is a key value of its own, all NaNs are one value and ``-0.0``
    is ``0.0`` — the equivalence GROUP BY and DISTINCT group by. Codes
    are order-preserving: they compare the way the key tuples compare
    lexicographically, NULL lowest, so a single string column's codes
    are its sort ranks.

    With ``sql_equal`` the codes follow ``=`` instead: a row with a
    NULL or NaN key part equals nothing, itself included, and gets -1.
    """
    codes = np.zeros(len(columns[0]), dtype=np.int64)
    bound = 1  # every code is < bound
    for vector in columns:
        ranks, cardinality = _ranks(vector.values)
        if bound * (cardinality + 1) >= _CODE_LIMIT:
            distinct, codes = np.unique(codes, return_inverse=True)
            bound = len(distinct)
        codes = codes * (cardinality + 1) + np.where(vector.validity,
                                                     ranks + 1, 0)
        bound *= cardinality + 1
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
