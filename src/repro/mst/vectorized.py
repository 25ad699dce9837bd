"""Numpy-batched merge sort tree queries.

A window operator issues one tree query *per input row*. Instead of
looping over rows in Python, the functions here process all ``m`` queries
simultaneously, peeling covering runs level by level (the same
decomposition as :mod:`repro.mst.decompose`) and running *batched* binary
searches: every iteration of the search advances all ``m`` queries at
once with a handful of numpy passes.

This trades the per-query O(log n) cascaded walk for O((log n)^2) numpy
work — but each "operation" is a vectorised pass over all queries, which
in CPython is two to three orders of magnitude faster than per-row
Python. The asymptotics the paper cares about (vs naive / incremental
algorithms) are unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mst.build import TreeLevels


def batched_lower_bound(arr: np.ndarray, start: np.ndarray, stop: np.ndarray,
                        target: np.ndarray) -> np.ndarray:
    """Per-query ``searchsorted(arr[start:stop], target, side='left')``.

    All of ``start``, ``stop``, ``target`` are equal-length arrays; the
    result is absolute (``start``-based) positions. Runs a classic binary
    search with all queries advanced in lock step.
    """
    lo = np.asarray(start, dtype=np.int64).copy()
    hi = np.asarray(stop, dtype=np.int64).copy()
    span = int(np.max(hi - lo, initial=0))
    for _ in range(max(span, 1).bit_length()):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        probe = np.where(active, mid, 0)
        go_right = active & (arr[probe] < target)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def _peel_plan(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray):
    """Yield ``(level, run_start, run_stop, mask)`` batches covering each
    query's ``[lo, hi)`` with whole runs — the vectorised analogue of
    :func:`repro.mst.decompose.decompose_range`. ``lo``/``hi`` are
    consumed (modified in place on copies)."""
    fanout = levels.fanout
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    length = 1
    for level in range(levels.height):
        parent = length * fanout
        for _ in range(fanout - 1):
            mask = (lo % parent != 0) & (lo < hi)
            if mask.any():
                yield level, lo, lo + length, mask
                lo = np.where(mask, lo + length, lo)
            else:
                break
        for _ in range(fanout - 1):
            mask = (hi % parent != 0) & (lo < hi)
            if mask.any():
                yield level, hi - length, hi, mask
                hi = np.where(mask, hi - length, hi)
            else:
                break
        if not (lo < hi).any():
            break
        length = parent


def batched_count(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                  key_hi: np.ndarray,
                  key_lo: Optional[np.ndarray] = None) -> np.ndarray:
    """For each query i: number of entries with slab position in
    ``[lo[i], hi[i])`` and key in ``[key_lo[i], key_hi[i])`` (``key_lo``
    omitted means unbounded below)."""
    m = len(lo)
    total = np.zeros(m, dtype=np.int64)
    key_hi = np.asarray(key_hi)
    if key_lo is not None:
        key_lo = np.asarray(key_lo)
    for level, run_lo, run_hi, mask in _peel_plan(levels, lo, hi):
        keys = levels.keys[level]
        idx = np.flatnonzero(mask)
        start = run_lo[idx]
        stop = run_hi[idx]
        upper = batched_lower_bound(keys, start, stop, key_hi[idx])
        if key_lo is None:
            total[idx] += upper - start
        else:
            lower = batched_lower_bound(keys, start, stop, key_lo[idx])
            total[idx] += upper - lower
    return total


_AGG_IDENTITY = {
    "sum": 0.0,
    "count": 0,
    "min": np.inf,
    "max": -np.inf,
}


def batched_aggregate(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                      key_hi: np.ndarray, kind: str) -> np.ndarray:
    """For each query: combine prefix aggregate states of entries in slab
    ``[lo, hi)`` with key below ``key_hi`` (Section 4.3, vectorised).

    ``kind`` is one of ``sum``, ``count``, ``min``, ``max``; the identity
    conventions match :mod:`repro.mst.aggregates`. ``min``/``max`` return
    ``±inf`` for empty inputs, which callers map back to NULL.
    """
    if kind not in _AGG_IDENTITY:
        raise ValueError(f"unsupported vectorised aggregate {kind!r}")
    if not levels.agg_prefix:
        raise ValueError("tree was built without aggregate annotations")
    m = len(lo)
    if kind == "count":
        total = np.zeros(m, dtype=np.int64)
    else:
        total = np.full(m, _AGG_IDENTITY[kind], dtype=np.float64)
    key_hi = np.asarray(key_hi)
    for level, run_lo, run_hi, mask in _peel_plan(levels, lo, hi):
        keys = levels.keys[level]
        prefix = np.asarray(levels.agg_prefix[level])
        idx = np.flatnonzero(mask)
        start = run_lo[idx]
        stop = run_hi[idx]
        bound = batched_lower_bound(keys, start, stop, key_hi[idx])
        has = bound > start
        contrib_pos = np.where(has, bound - 1, 0)
        contrib = prefix[contrib_pos]
        if kind in ("sum", "count"):
            total[idx] += np.where(has, contrib, 0)
        elif kind == "min":
            total[idx] = np.minimum(total[idx],
                                    np.where(has, contrib, np.inf))
        else:
            total[idx] = np.maximum(total[idx],
                                    np.where(has, contrib, -np.inf))
    return total


def batched_select(levels: TreeLevels, k: np.ndarray, key_lo: np.ndarray,
                   key_hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each query: the ``k``-th (0-based, slab order) entry whose key
    lies in one of the query's key ranges — the select over a *set* of
    ranges that EXCLUDE frames need (Section 4.7). ``key_lo``/``key_hi``
    are ``(pieces, m)`` arrays of disjoint ``[key_lo, key_hi)`` ranges
    (a flat ``(m,)`` pair is one piece); an inverted piece is empty.
    Returns ``(slab_positions, key_values)``.

    Callers must guarantee ``k < count_qualifying`` per query (rows with
    empty frames are masked out at the window-function layer).
    """
    n = levels.n
    fanout = levels.fanout
    m = len(k)
    remaining = np.asarray(k, dtype=np.int64).copy()
    key_lo = np.atleast_2d(key_lo)
    key_hi = np.maximum(np.atleast_2d(key_hi), key_lo)
    slab_start = np.zeros(m, dtype=np.int64)
    for level in range(levels.height - 1, 0, -1):
        keys = levels.keys[level - 1]
        child_len = fanout ** (level - 1)
        decided = np.zeros(m, dtype=np.bool_)
        for c in range(fanout - 1):
            child_start = slab_start + c * child_len
            child_stop = np.minimum(child_start + child_len, n)
            open_child = ~decided & (child_start < child_stop)
            start = np.where(open_child, child_start, 0)
            stop = np.where(open_child, child_stop, 0)
            count_c = np.zeros(m, dtype=np.int64)
            for piece_lo, piece_hi in zip(key_lo, key_hi):
                count_c += batched_lower_bound(keys, start, stop, piece_hi)
                count_c -= batched_lower_bound(keys, start, stop, piece_lo)
            descend = open_child & (remaining < count_c)
            skip = open_child & ~descend
            slab_start = np.where(descend, child_start, slab_start)
            remaining = np.where(skip, remaining - count_c, remaining)
            decided |= descend
        # Queries not decided by the first fanout-1 children fall into
        # the last child run.
        last_start = slab_start + (fanout - 1) * child_len
        slab_start = np.where(decided, slab_start, last_start)
    key_values = levels.keys[0][slab_start]
    return slab_start, key_values.astype(np.int64)
