"""Previous-occurrence indices (Algorithm 1).

``previous_occurrence`` is the paper's Algorithm 1: annotate each value
with its position, sort lexicographically (a stable sort by value), and
read the previous occurrence of every duplicate off the neighbouring
sorted entry. The sort-based formulation is what makes the step
parallelisable; for non-sortable (hashable-only) payloads we fall back to
a single dictionary sweep, which is the classic hash formulation of the
same computation. Equality is SQL DISTINCT's: NULLs are one value and
so are all NaNs.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

NO_PREVIOUS = -1
"""Sentinel for "value appears for the first time" (the paper's "–").

Section 5.1 packs this as 0 with all real indices shifted by one; we keep
-1 at the API level and let the tree layer choose the physical encoding.
"""


_NAN = float("nan")


def distinct_key(value: Any) -> Any:
    """``value`` as a hash key for DISTINCT: numpy scalars unboxed, and
    every NaN the same key (``nan != nan``, but DISTINCT and GROUP BY
    treat all NaNs as one value)."""
    if isinstance(value, np.generic):
        value = value.item()
    return _NAN if value != value else value


def _is_sortable_array(values: Any) -> bool:
    return isinstance(values, np.ndarray) and (
        np.issubdtype(values.dtype, np.integer)
        or np.issubdtype(values.dtype, np.floating)
        or np.issubdtype(values.dtype, np.bool_))


def previous_occurrence(values: Any,
                        validity: Any = None) -> np.ndarray:
    """``out[i]`` = largest j < i with ``values[j] == values[i]``, else -1.

    NULL entries (``validity[i]`` false) are treated as duplicates of each
    other, matching SQL DISTINCT semantics where NULL contributes at most
    one group.
    """
    n = len(values)
    out = np.full(n, NO_PREVIOUS, dtype=np.int64)
    if n == 0:
        return out
    if validity is not None:
        validity = np.asarray(validity, dtype=np.bool_)
    if _is_sortable_array(values) and validity is None:
        # Algorithm 1: stable sort by value, previous occurrence is the
        # sorted neighbour when values match.
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        same = sorted_values[1:] == sorted_values[:-1]
        if sorted_values.dtype.kind == "f":  # NaNs sort last, together
            nan = np.isnan(sorted_values)
            same |= nan[1:] & nan[:-1]
        out[order[1:][same]] = order[:-1][same]
        return out
    last_seen: Dict[Any, int] = {}
    null_seen = -1
    for i in range(n):
        if validity is not None and not validity[i]:
            if null_seen >= 0:
                out[i] = null_seen
            null_seen = i
            continue
        value = distinct_key(values[i])
        if value in last_seen:
            out[i] = last_seen[value]
        last_seen[value] = i
    return out


def previous_occurrence_by_hash(values: Sequence[Any],
                                validity: Any = None) -> np.ndarray:
    """Algorithm 1 on *hashes* — the Section 6.7 implementation.

    To stay independent of SQL types, Hyper sorts (hash, position) pairs
    instead of the values themselves. Sorting by hash clusters equal
    values; hash collisions can interleave unequal values inside a run,
    so within each equal-hash run the previous occurrence is found with
    actual equality checks against a per-run last-seen table. Exact for
    any hashable type, and sort-based (hence parallelisable) like the
    integer fast path.
    """
    n = len(values)
    out = np.full(n, NO_PREVIOUS, dtype=np.int64)
    if n == 0:
        return out
    if validity is not None:
        validity = np.asarray(validity, dtype=np.bool_)
    hashes = np.empty(n, dtype=np.int64)
    for i in range(n):
        if validity is not None and not validity[i]:
            hashes[i] = -(2 ** 62)  # all NULLs form one run
        else:
            hashes[i] = hash(distinct_key(values[i]))
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    run_start = 0
    for i in range(1, n + 1):
        if i < n and sorted_hashes[i] == sorted_hashes[run_start]:
            continue
        run = order[run_start:i]
        if len(run) > 1:
            last_seen: Dict[Any, int] = {}
            null_seen = -1
            for position in run:  # ascending original positions
                if validity is not None and not validity[position]:
                    if null_seen >= 0:
                        out[position] = null_seen
                    null_seen = position
                    continue
                value = distinct_key(values[position])
                if value in last_seen:
                    out[position] = last_seen[value]
                last_seen[value] = position
        run_start = i
    return out
