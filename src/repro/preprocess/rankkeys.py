"""Dense integer rank keys (Section 5.1, Figure 8).

Rank functions need to count, inside the frame, rows comparing smaller
than the current row under the function-level ORDER BY. Instead of
teaching the tree about SQL comparison semantics, the rows are renumbered
with dense integers in sort order; the tree then only ever compares
integers.

Two numbering schemes:

* :func:`dense_rank_keys` — ties share a number (RANK / PERCENT_RANK /
  DENSE_RANK semantics: "smaller" means strictly smaller by sort key);
* :func:`row_number_keys` — ties broken by frame position, every row gets
  a unique number (ROW_NUMBER / CUME_DIST / NTILE / LEAD / LAG).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sortutil import SortColumn, sort_with_runs, stable_argsort


def dense_rank_keys(columns: Sequence[SortColumn], n: int) -> np.ndarray:
    """``key[i]`` = number of distinct sort-key classes before row i's
    class; equal rows share a key."""
    order, group_ids = sort_with_runs(columns, n)
    keys = np.empty(n, dtype=np.int64)
    keys[order] = group_ids
    return keys


def row_number_keys(columns: Sequence[SortColumn], n: int) -> np.ndarray:
    """``key[i]`` = row i's position in the stable function order; all
    keys are unique (duplicates disambiguated by frame position, exactly
    the ROW_NUMBER construction of Section 4.4)."""
    order = stable_argsort(columns, n)
    keys = np.empty(n, dtype=np.int64)
    keys[order] = np.arange(n, dtype=np.int64)
    return keys
