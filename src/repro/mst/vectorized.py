"""Numpy-batched merge sort tree queries by a cascaded descent.

A window operator issues one tree query *per input row*. Instead of
looping over rows in Python, the functions here process all ``m`` queries
simultaneously, each step a vectorised pass over all of them (Section
4.2): one gather per key threshold from the top level's key counts
(:class:`~repro.mst.build.KeyCounts`), then, level by level, every
query's lower bound inside the child run it descends into comes from
the level's cascading bridge in O(1) gathers — there is no search
inside runs. That is O(log n) numpy passes
per batch. They are the tree's only query path:
:class:`~repro.mst.tree.MergeSortTree`'s methods are one-row calls into
them.

* :func:`batched_count` descends once per slab-range end, carrying the
  bounds of every threshold down the same path: a count over ``[lo,
  hi)`` is the difference of two prefix counts.
* :func:`batched_select` descends once, into the child run that holds the
  ``k``-th qualifying entry.
* :func:`batched_aggregate` follows the two boundary paths of ``[lo, hi)``
  down, reads the prefix aggregate of every run that covers the range
  between them, and combines those bottom-up, at each level ``lo``'s
  side left to right before ``hi``'s right to left — numeric prefixes
  with the aggregate's ufunc, so float sums keep their bits, object
  states (AVG, UDAFs) with the spec's ``merge``.

Queries run in blocks of :data:`BLOCK_ROWS`, which keeps every temporary
cache-sized. The DENSE_RANK range tree (:mod:`repro.rangetree.dense`)
walks the same two boundary paths and counts inside each covering run
with the count descent (:func:`_path_prefix`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mst.aggregates import COUNT, MAX, MIN, SUM, AggregateSpec
from repro.mst.build import TreeLevels

#: Queries per descent: temporaries of this many int64s stay in cache.
BLOCK_ROWS = 1 << 14


def _blocks(m: int) -> List[slice]:
    return [slice(s, s + BLOCK_ROWS) for s in range(0, m, BLOCK_ROWS)]


def _below(levels: TreeLevels, level: int, start: np.ndarray,
           bound: np.ndarray) -> List[np.ndarray]:
    """Of the first ``bound`` entries of each level-``level`` run at
    ``start``: those from children ``0..c``, for every ``c < f - 1``."""
    return [levels.child_prefix(level, c, start, bound)
            for c in range(levels.fanout - 1)]


def _descend(below: Sequence[np.ndarray], bound: np.ndarray,
             passes: Callable[[int, np.ndarray], np.ndarray]):
    """One step down a path: ``below[c]`` counts the node's first
    ``bound`` entries that came from children ``0..c`` (``c < f - 1``);
    ``passes(c, below[c])`` says which queries' paths lie beyond child
    ``c``. Returns ``(lower, upper, child)``: the entries from children
    left of the path's child, that plus the bound inside it, and the
    child's index."""
    lower = 0
    upper = bound
    child = passed = None
    for c, counted in enumerate(below):
        past = passes(c, counted)
        # The path's child is the first one it does not pass.
        upper = np.where(past if c == 0 else past | ~passed, upper, counted)
        lower = np.where(past, counted, lower)
        child = past if c == 0 else np.add(child, past, dtype=np.int64)
        passed = past
    return lower, upper, child


def _beyond(offset: np.ndarray, child_len: int):
    """:func:`_descend`'s ``passes`` for the path of a slab position at
    ``offset`` inside its node."""
    return lambda c, _: offset >= (c + 1) * child_len


def _path_child(levels: TreeLevels, level: int, start: np.ndarray,
                bound: np.ndarray, offset: np.ndarray):
    """:func:`_descend` for the path of a slab position at ``offset``
    inside its node, whose child is known up front: two bridge gathers
    per query whatever the fanout (:func:`_path_prefix` reads one at
    ``f = 2``)."""
    child_len = levels.fanout ** (level - 1)
    child = offset // child_len
    last = levels.fanout - 1
    lower = levels.child_prefix(level, np.maximum(child - 1, 0), start,
                                bound)
    upper = levels.child_prefix(level, np.minimum(child, last - 1), start,
                                bound)
    return (np.where(child > 0, lower, 0),
            np.where(child < last, upper, bound), child)


def _path_prefix(levels: TreeLevels, level: int, start: np.ndarray,
                 bound: np.ndarray, path: np.ndarray):
    """Down the path of slab position ``path`` from the level-``level``
    run at ``start``, whose first ``bound`` entries qualify. Returns
    ``(total, leaf)``: the qualifying entries at slab positions in
    ``[start, path)``, and 1 where the entry at ``path`` qualifies.
    ``bound`` may stack several bounds per path, ``(bounds, m)``: the
    path is walked once for all of them."""
    total = np.zeros(np.shape(bound), dtype=np.int64)
    if levels.fanout == 2:
        # A node's start and the path's child are the path's bits: the
        # run at level ``step`` starts at ``path`` with ``step`` low bits
        # cleared, and bit ``step - 1`` says right or left.
        for step in range(level, 0, -1):
            start = (path >> step) << step
            counted = levels.child_prefix(step, 0, start, bound)
            right = ((path >> (step - 1)) & 1).astype(np.bool_)
            total += np.where(right, counted, 0)
            bound = np.where(right, bound - counted, counted)
        return total, bound
    for step in range(level, 0, -1):
        lower, upper, child = _path_child(levels, step, start, bound,
                                          path - start)
        total += lower
        bound = upper - lower
        start = start + child * levels.fanout ** (step - 1)
    return total, bound


def _covering_walk(trees: Sequence[TreeLevels], top: int, lo: np.ndarray,
                   hi: np.ndarray, bounds: Sequence[np.ndarray]):
    """Walks the two boundary paths of ``[lo, hi)`` down ``trees`` (over
    the same slab positions, ``top + 1`` levels, top-level bounds
    ``bounds[t]``), yielding ``(level, runs)`` from the top: the
    level-``level`` runs that cover the range between the paths (right
    of ``lo``'s, left of ``hi - 1``'s), ``lo``'s side left to right,
    then ``hi``'s right to left. A run is ``(take, start, counts)``:
    the queries it covers (empty ranges are the caller's to mask), and
    its entries within the bound in each tree."""
    fanout = trees[0].fanout
    start_lo = np.zeros(len(lo), dtype=np.int64)
    start_hi = start_lo
    bounds_lo = bounds_hi = list(bounds)
    # The top run covers a query only when it is the whole, full tree.
    yield top, [((lo == 0) & (hi == fanout ** top), start_lo, bounds)]
    for level in range(top, 0, -1):
        child_len = fanout ** (level - 1)
        offset_lo = lo - start_lo
        offset_hi = hi - start_hi
        split = start_lo != start_hi
        below_lo = [_below(tree, level, start_lo, bound)
                    for tree, bound in zip(trees, bounds_lo)]
        below_hi = [_below(tree, level, start_hi, bound)
                    for tree, bound in zip(trees, bounds_hi)]
        edges_lo = [[0] + cuts + [b] for cuts, b in zip(below_lo, bounds_lo)]
        edges_hi = [[0] + cuts + [b] for cuts, b in zip(below_hi, bounds_hi)]
        runs = []
        # lo's side: the children from the first at or after lo, unless
        # lo starts the node (then a coarser run covers it).
        lo_open = offset_lo > 0
        for c in range(1, fanout):
            take = (lo_open & (offset_lo <= c * child_len)
                    & (split | (offset_hi >= (c + 1) * child_len)))
            runs.append((take, start_lo + c * child_len,
                         [edges[c + 1] - edges[c] for edges in edges_lo]))
        # hi's side: the whole children before hi, unless hi ends the
        # node, or lo's side already took this node's children.
        hi_open = (offset_hi < child_len * fanout) & (split | ~lo_open)
        for c in range(fanout - 2, -1, -1):
            take = hi_open & (offset_hi >= (c + 1) * child_len)
            runs.append((take, start_hi + c * child_len,
                         [edges[c + 1] - edges[c] for edges in edges_hi]))
        yield level - 1, runs
        bounds_lo, child = _descend_all(below_lo, bounds_lo,
                                        _beyond(offset_lo, child_len))
        start_lo = start_lo + child * child_len
        bounds_hi, child = _descend_all(below_hi, bounds_hi,
                                        _beyond(offset_hi - 1, child_len))
        start_hi = start_hi + child * child_len


def _descend_all(below, bounds, passes):
    """:func:`_descend` in every tree: inner bounds, the shared child."""
    inside = []
    for cuts, bound in zip(below, bounds):
        lower, upper, child = _descend(cuts, bound, passes)
        inside.append(upper - lower)
    return inside, child


def _prefix_counts(levels: TreeLevels, x: np.ndarray,
                   bound: np.ndarray) -> np.ndarray:
    """Per query: entries at slab positions below ``x`` (``0 <= x <= n``)
    with key below each threshold, whose top-level bounds are the rows
    of ``bound`` (shape ``(thresholds, m)``).

    Walks the root-to-leaf path of slab position ``min(x, n - 1)``
    once, adding the entries of the child runs left of the path at each
    level for every threshold; the final leaf bound adds the last entry
    when ``x == n``."""
    n = levels.n
    total, leaf = _path_prefix(levels, levels.height - 1,
                               np.zeros(len(x), dtype=np.int64), bound,
                               np.minimum(x, n - 1))
    return total + np.where(x >= n, leaf, 0)


def batched_count(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                  key_hi: np.ndarray,
                  key_lo: Optional[np.ndarray] = None) -> np.ndarray:
    """For each query i: number of entries with slab position in
    ``[lo[i], hi[i])`` and key in ``[key_lo[i], key_hi[i])`` (``key_lo``
    omitted means unbounded below)."""
    m = len(lo)
    n = levels.n
    if n == 0 or m == 0:
        return np.zeros(m, dtype=np.int64)
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.maximum(np.minimum(np.asarray(hi, dtype=np.int64), n), lo)
    # One descent per range end, with a (thresholds, m) bound; a prefix
    # ending at slab position 0 is empty, so ranges that all start there
    # skip their lower ends.
    ends = [hi, lo] if lo.any() else [hi]
    keys = [key_hi] if key_lo is None else [key_hi, key_lo]
    bound = levels.top.below(np.stack([np.asarray(key) for key in keys]))
    x = np.concatenate(ends)
    if len(ends) == 2:
        bound = np.concatenate([bound, bound], axis=1)
    prefix = np.empty((len(keys), len(x)), dtype=np.int64)
    for block in _blocks(len(x)):
        prefix[:, block] = _prefix_counts(levels, x[block], bound[:, block])
    counts = prefix[:, :m] - prefix[:, m:] if len(ends) == 2 else prefix
    return counts[0] - counts[1] if key_lo is not None else counts[0]


#: The built-in aggregates by name.
_BUILTIN = {spec.name: spec for spec in (SUM, COUNT, MIN, MAX)}

#: Ufunc and empty-input value of the aggregates with numeric prefixes.
_UFUNCS = {
    "sum": (np.add, 0),
    "count": (np.add, 0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


def _combiner(levels: TreeLevels, kind: Union[str, AggregateSpec]):
    """``(combine, identity, dtype)`` of :func:`batched_aggregate`."""
    spec = _BUILTIN.get(kind) if isinstance(kind, str) else kind
    if spec is None:
        raise ValueError(f"unsupported vectorised aggregate {kind!r}")
    if not levels.agg_prefix:
        raise ValueError("tree was built without aggregate annotations")
    prefix_dtype = levels.agg_prefix[0].dtype
    if prefix_dtype == object:
        return np.frompyfunc(spec.merge, 2, 1), spec.identity, prefix_dtype
    if spec.name not in _UFUNCS:
        raise ValueError(f"unsupported vectorised aggregate {spec.name!r}")
    combine, identity = _UFUNCS[spec.name]
    return combine, identity, np.result_type(prefix_dtype, identity)


def batched_aggregate(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                      key_hi: np.ndarray,
                      kind: Union[str, AggregateSpec]) -> np.ndarray:
    """For each query: the merged prefix aggregate states of the entries
    in slab ``[lo, hi)`` with key below ``key_hi`` (Section 4.3,
    vectorised). States are not finalized.

    ``kind`` is the tree's :class:`~repro.mst.aggregates.AggregateSpec`,
    or the name of a built-in one (``sum``, ``count``, ``min``,
    ``max``). Numeric prefixes combine with the
    aggregate's ufunc into the prefix dtype (float64 for ``min`` /
    ``max``); an empty input gives 0, or ``±inf`` for ``min``/``max``,
    which callers map back to NULL. Object prefixes (AVG, UDAFs) combine
    with the spec's ``merge`` into an object array; an empty input gives
    its ``identity``. The merge order is the covering runs' bottom-up
    peel, not slab order, so a UDAF's merge must be commutative as well
    as associative.
    """
    combine, identity, dtype = _combiner(levels, kind)
    m = len(lo)
    n = levels.n
    total = np.empty(m, dtype=dtype)
    total.fill(identity)
    if n == 0 or m == 0:
        return total
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, n)
    key_hi = np.asarray(key_hi)
    for block in _blocks(m):
        _aggregate_block(levels, lo[block], hi[block], key_hi[block],
                         combine, total[block])
    return total


def _aggregate_block(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                     key_hi: np.ndarray, combine: Callable,
                     total: np.ndarray) -> None:
    """:func:`batched_aggregate` over one block of queries, into
    ``total`` in place: the contributions of :func:`_covering_walk` are
    combined level by level from the bottom."""
    live = lo < hi
    lo = np.where(live, lo, 0)
    hi = np.where(live, hi, 1)
    bound = levels.top.below(key_hi)
    # contributions[level]: (queries, prefix position) of that level's
    # covering runs, in peeling order.
    contributions: List[List[Tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in levels.bridges]
    for level, runs in _covering_walk([levels], levels.height - 1, lo, hi,
                                      [bound]):
        for take, start, (count,) in runs:
            has = live & take & (count > 0)
            if has.any():
                contributions[level].append((has, start - 1 + count))
    for prefix, level_runs in zip(levels.agg_prefix, contributions):
        for has, at in level_runs:
            total[has] = combine(total[has], prefix[at[has]])


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
    k = np.asarray(k, dtype=np.int64)
    key_lo = np.atleast_2d(key_lo)
    key_hi = np.maximum(np.atleast_2d(key_hi), key_lo)
    # Rows 0..pieces-1 bound each piece from above, the rest from below.
    thresholds = np.concatenate([key_hi, key_lo])
    slabs = np.zeros(len(k), dtype=np.int64)
    for block in _blocks(len(k)):
        slabs[block] = _select_block(levels, k[block],
                                     thresholds[:, block])
    return slabs, levels.keys[0][slabs].astype(np.int64)


def _select_block(levels: TreeLevels, k: np.ndarray,
                  thresholds: np.ndarray) -> np.ndarray:
    """:func:`batched_select`'s slab positions for one block."""
    pieces = len(thresholds) // 2
    top = levels.height - 1
    remaining = k.copy()
    bound = levels.top.below(thresholds)
    start = np.zeros(len(k), dtype=np.int64)

    def qualifying(counted):
        per_piece = counted[:pieces] - counted[pieces:]
        return per_piece[0] if pieces == 1 else per_piece.sum(axis=0)

    if levels.fanout == 2:
        for level in range(top, 0, -1):
            # Left child's entries within the bound; the k-th qualifying
            # entry lies right of them when there are at most k.
            counted = levels.child_prefix(level, 0, start, bound)
            inside = qualifying(counted)
            right = remaining >= inside
            remaining -= np.where(right, inside, 0)
            bound = np.where(right, bound - counted, counted)
            start += right.astype(np.int64) << (level - 1)
        return start
    for level in range(top, 0, -1):
        # The k-th qualifying entry lies beyond children 0..c.
        lower, upper, child = _descend(
            _below(levels, level, start, bound), bound,
            lambda c, counted: remaining >= qualifying(counted))
        remaining -= qualifying(lower)
        bound = upper - lower
        start += child * levels.fanout ** (level - 1)
    return start
