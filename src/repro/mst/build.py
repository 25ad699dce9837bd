"""Construction of merge sort tree levels.

Two build paths produce bit-identical trees:

* :func:`build_levels_scalar` — a faithful bottom-up, fanout-``f``
  multiway merge (Section 5.2 describes the parallel variant). It is the
  reference implementation used by the tests and mirrors what a database
  system would run.
* :func:`build_levels_numpy` — one stable sort per level of the codes
  ``slab * span + key`` over the level below (:func:`_merge_orders`).
  Sorting each slab independently is exactly a multiway merge of its
  already-sorted children, and numpy's stable integer sort (timsort)
  finds those sorted runs and only merges them. This is the fast path
  for large inputs.

A tree keeps level 0's keys and not the sorted levels above it: every
query reads level 0 (select, navigation, distinct) and the top level's
key counts (:class:`KeyCounts`), and descends through the bridges, so
the levels in between are only built, never read. What is kept:

* *cascading bridges* (Section 4.2, "fractional cascading"): for every
  position ``p`` of a level, how many of the level's first ``p`` entries
  came from child runs ``0..c`` of their slab, for each of the ``f - 1``
  columns ``c < f - 1``. A lower bound inside a parent run is thereby
  translated into the lower bound inside every child run with O(1)
  lookups. At the paper's ``k = 1`` (:data:`DEFAULT_SAMPLE_EVERY`) the
  bridge is those counts, read with one gather; at ``k > 1`` it is one
  int anchor every ``k`` positions plus a uint8 offset per position
  (about 1 byte per entry and column), read with two.
* the *top-level key counts*: the number of keys below any threshold, in
  O(1) — the bound every descent starts from.
* *prefix aggregate annotations* (Section 4.3): for every position, the
  aggregate of the payload values from the start of its sorted run.

Index width is chosen per tree — int32 when the key domain allows it,
int64 otherwise — mirroring Section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.mst.aggregates import AggregateSpec
from repro.mst.decompose import num_levels

#: Default bridge sampling ``k``: the paper's ``k = 1``, where a bridge
#: is one cumulative count per position. Offsets from an anchor are
#: uint8, so ``k`` can be at most 256; it must be a power of two.
DEFAULT_SAMPLE_EVERY = 1

#: Largest key span, in multiples of ``n + 1``, that :class:`KeyCounts`
#: answers from a table; wider keys keep their sorted array.
TABLE_SPAN_FACTOR = 4


@dataclass(frozen=True)
class KeyCounts:
    """How many of a key array's entries lie below a threshold.

    Dense keys (a span of at most ``TABLE_SPAN_FACTOR * (n + 1)``, which
    every key the window evaluators build has: positions, ranks,
    previous-occurrence indices) are a count table: ``table[t - low]``
    keys lie below ``t``, one gather per threshold. The table spans
    ``max(span, n) + 1`` entries, so keys spanning at most ``n`` give
    exactly ``n + 1``. Sparser keys, which only the public
    :class:`~repro.mst.tree.MergeSortTree` API can bring, keep the sorted
    keys in ``table`` (``low`` is None) and binary-search them.
    """

    table: np.ndarray
    low: Optional[int]

    @classmethod
    def of(cls, keys: np.ndarray) -> "KeyCounts":
        n = len(keys)
        dtype = choose_index_dtype(n + 1)
        if n == 0:
            return cls(np.zeros(1, dtype=dtype), 0)
        low, high = int(keys.min()), int(keys.max())
        span = high - low + 1
        if span > TABLE_SPAN_FACTOR * (n + 1):
            return cls(np.sort(keys), None)
        width = max(span, n)
        table = np.zeros(width + 1, dtype=dtype)
        shifted = keys.astype(np.int64)
        shifted -= low
        np.cumsum(np.bincount(shifted, minlength=width), out=table[1:])
        return cls(table, low)

    def below(self, threshold: Any) -> np.ndarray:
        """Per threshold: the keys strictly below it."""
        if self.low is None:
            return np.searchsorted(self.table, threshold, side="left")
        at = np.clip(np.asarray(threshold, dtype=np.int64), self.low,
                     self.low + len(self.table) - 1)
        at -= self.low
        return self.table[at]


@dataclass
class TreeLevels:
    """The stored arrays of a merge sort tree.

    ``keys`` is ``[level 0]``, the input array (empty in a bridges-only
    tree, the :class:`~repro.rangetree.dense.RangeTree` layout, which
    answers only :meth:`consumed` and :meth:`child_prefix`); the sorted
    levels above it are not kept. For ``i >= 1`` the bridge of level
    ``i`` is ``bridges[i]``, shape ``(fanout - 1, n + 1)``: at ``k = 1``
    the counts themselves (``anchors[i]`` is None), at ``k > 1`` uint8
    offsets from ``anchors[i]`` (shape ``(fanout - 1, ceil((n + 1) /
    sample_every))``); see :meth:`consumed`. Both are ``None`` at level
    0. ``top`` counts the keys below a threshold (None in a
    bridges-only tree). ``agg_prefix[i]`` holds per-position running
    prefix aggregates within each run of level ``i``: a numeric array
    from the spec's ``prefix_numpy`` kernel, or an object array of
    states.
    """

    fanout: int
    sample_every: int
    keys: List[np.ndarray] = field(default_factory=list)
    anchors: List[Optional[np.ndarray]] = field(default_factory=list)
    bridges: List[Optional[np.ndarray]] = field(default_factory=list)
    agg_prefix: List[Any] = field(default_factory=list)
    top: Optional[KeyCounts] = None

    @property
    def n(self) -> int:
        """Number of tree entries (length of every level)."""
        return len(self.keys[0]) if self.keys else 0

    @property
    def height(self) -> int:
        """Number of levels, including the level-0 input."""
        return len(self.bridges)

    def run_length(self, level: int) -> int:
        """Sorted-run length at ``level`` (= fanout ** level)."""
        return self.fanout ** level

    def consumed(self, level: int, column: Any, pos: Any) -> Any:
        """How many of the first ``pos`` entries of ``level`` (global
        positions, ``0 <= pos <= n``) came from child runs ``0..column``
        of their slab. ``pos`` may be an int or an int64 array, and
        ``column`` an int or an array of one column per position."""
        bridge = self.bridges[level]
        if self.sample_every == 1:
            # The bridge is the count: one gather. A row first, then a
            # 1-d gather, is numpy's fast path for a scalar column.
            return bridge[column, pos] if np.ndim(column) \
                else bridge[column][pos]
        shift = self.sample_every.bit_length() - 1
        if np.ndim(column):
            return self.anchors[level][column, pos >> shift] \
                + bridge[column, pos]
        return self.anchors[level][column][pos >> shift] + bridge[column][pos]

    def child_prefix(self, level: int, column: Any, start: Any,
                     bound: Any) -> Any:
        """Of the first ``bound`` entries of the level-``level`` run at
        ``start``, how many came from its child runs ``0..column``.

        Every slab before ``start`` is full and gave ``fanout**(level-1)``
        entries to each child, hence the ``start // fanout`` term."""
        before = start >> 1 if self.fanout == 2 else start // self.fanout
        if np.ndim(column) or column:
            before = before * (column + 1)
        return self.consumed(level, column, start + bound) - before


def choose_index_dtype(n: int) -> np.dtype:
    """32-bit indices when they fit, else 64-bit (Section 5.1)."""
    return np.dtype(np.int32) if n < 2**31 - 1 else np.dtype(np.int64)


def check_sample_every(sample_every: int) -> None:
    """Anchor spacing must be a power of two in ``[1, 256]``."""
    if not (1 <= sample_every <= 256
            and sample_every & (sample_every - 1) == 0):
        raise ValueError(
            f"sample_every must be a power of two in [1, 256], "
            f"got {sample_every}")


def _prepare_keys(keys: Any) -> np.ndarray:
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ValueError("merge sort tree keys must be one-dimensional")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            "merge sort tree keys must be integers; preprocess values to "
            "dense integer keys first (Section 5.1)")
    return arr


def _permuted_prefix(spec: AggregateSpec, payload: Any, order: Optional[np.ndarray],
                     run_length: int, n: int) -> Any:
    """Prefix aggregates of ``payload[order]`` within runs of ``run_length``."""
    if order is None:
        permuted = payload
    elif isinstance(payload, np.ndarray):
        permuted = payload[order]
    else:
        permuted = [payload[i] for i in order]
    if spec.prefix_numpy is not None and isinstance(permuted, np.ndarray):
        return spec.prefix_numpy(permuted, run_length)
    prefix = np.empty(n, dtype=object)
    for start in range(0, n, run_length):
        state = spec.identity
        for i in range(start, min(start + run_length, n)):
            state = spec.merge(state, spec.lift(permuted[i]))
            prefix[i] = state
    return prefix


def _bridge_from_sources(slab_offsets: np.ndarray, child_len: int,
                         fanout: int, sample_every: int
                         ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """``(anchors, bridge)`` of a level whose entry ``j`` came from
    offset ``slab_offsets[j]`` of its slab below (see
    :meth:`TreeLevels.consumed`). At ``k = 1`` the bridge is the running
    count of entries from children ``0..c``, and there are no anchors.
    At ``k > 1`` the count before ``p`` is ``anchors[c, p // k] +
    bridge[c, p]``: per anchor block in uint8, a block's running sum of
    ``taken`` less its first element (its wrap-around cancels)."""
    columns, width = fanout - 1, len(slab_offsets) + 1
    if sample_every == 1:
        counts = np.zeros((columns, width), dtype=choose_index_dtype(width))
        for c in range(columns):
            np.cumsum(slab_offsets < (c + 1) * child_len,
                      dtype=counts.dtype, out=counts[c, 1:])
        return None, counts
    padded = -(-width // sample_every) * sample_every
    taken = np.zeros((columns, padded), dtype=np.uint8)
    for c in range(columns):
        np.less(slab_offsets, (c + 1) * child_len, out=taken[c, 1:width])
    blocks = taken.reshape(columns, -1, sample_every)
    firsts = blocks[:, :, 0].astype(np.int64)
    totals = blocks.sum(axis=2, dtype=np.int64)
    np.cumsum(blocks, axis=2, out=blocks)
    blocks -= firsts[:, :, None].astype(np.uint8)
    anchors = np.cumsum(totals, axis=1) - totals + firsts
    return (anchors.astype(choose_index_dtype(width)),
            taken[:, :width].copy())


def _merge_orders(keys: np.ndarray, fanout: int, height: int
                  ) -> Iterator[Tuple[int, np.ndarray]]:
    """``(level, step_order)`` for levels ``1 .. height - 1``:
    ``step_order`` is the stable permutation of the level below that sorts
    every aligned slab of ``fanout**level`` entries by key.

    Each level is one stable ``argsort`` of the int64 codes
    ``slab * span + (key - min)``. The slab part keeps every slab in
    place, and the child runs inside it are already sorted, so the sort
    only merges them. The codes are built from ``keys`` when
    ``ceil(n / fanout) * span`` fits int64, and from the dense ranks of
    ``keys`` otherwise; both give the same stable order.
    """
    n = len(keys)
    if height <= 1:
        return
    low, high = int(keys.min()), int(keys.max())
    span = high - low + 1
    if -(-n // fanout) * span <= np.iinfo(np.int64).max:
        sort_keys = keys.astype(np.int64)
        sort_keys -= low
    else:
        uniques, sort_keys = np.unique(keys, return_inverse=True)
        span = len(uniques)
    positions = np.arange(n, dtype=np.int64)
    codes = np.empty(n, dtype=np.int64)
    for level in range(1, height):
        np.floor_divide(positions, fanout ** level, out=codes)
        codes *= span
        codes += sort_keys
        step_order = np.argsort(codes, kind="stable")
        sort_keys = sort_keys[step_order]
        yield level, step_order


def _bridged_merges(keys: np.ndarray, fanout: int, height: int,
                    sample_every: int
                    ) -> Iterator[Tuple[int, np.ndarray,
                                        Optional[np.ndarray], np.ndarray]]:
    """:func:`_merge_orders` with each level's bridge:
    ``(level, step_order, anchors, bridge)``."""
    for level, step_order in _merge_orders(keys, fanout, height):
        parent_len = fanout ** level
        # step_order[j] lies in j's slab: its offset there says which
        # child run entry j came from.
        in_slab = (step_order & (parent_len - 1)
                   if parent_len & (parent_len - 1) == 0
                   else step_order % parent_len)
        yield (level, step_order) + _bridge_from_sources(
            in_slab, parent_len // fanout, fanout, sample_every)


def _new_levels(keys: Any, fanout: int, sample_every: int,
                aggregate: Optional[AggregateSpec], payload: Any
                ) -> TreeLevels:
    """Level 0 of a tree: the input keys, their top-level counts and
    their own annotation."""
    check_sample_every(sample_every)
    base = _prepare_keys(keys)
    n = len(base)
    dtype = choose_index_dtype(max(n, int(base.max(initial=0)) + 2,
                                   -int(base.min(initial=0))))
    levels = TreeLevels(fanout=fanout, sample_every=sample_every)
    levels.keys.append(base.astype(dtype, copy=True))
    levels.anchors.append(None)
    levels.bridges.append(None)
    levels.top = KeyCounts.of(levels.keys[0])
    if aggregate is not None:
        if payload is None:
            raise ValueError("aggregate annotation requires a payload array")
        levels.agg_prefix.append(
            _permuted_prefix(aggregate, payload, None, 1, n))
    return levels


def build_levels_numpy(keys: Any, fanout: int = 2,
                       sample_every: int = DEFAULT_SAMPLE_EVERY,
                       aggregate: Optional[AggregateSpec] = None,
                       payload: Any = None) -> TreeLevels:
    """Build every level's bridge, each level one stable merge of the
    level below (:func:`_merge_orders`); the merged keys live only as
    the sort codes of the next merge."""
    levels = _new_levels(keys, fanout, sample_every, aggregate, payload)
    n = levels.n
    order: Optional[np.ndarray] = None
    for level, step_order, anchors, bridge in _bridged_merges(
            levels.keys[0], fanout, num_levels(n, fanout), sample_every):
        levels.anchors.append(anchors)
        levels.bridges.append(bridge)
        if aggregate is not None:
            order = step_order if order is None else order[step_order]
            levels.agg_prefix.append(_permuted_prefix(
                aggregate, payload, order, fanout ** level, n))
    return levels


def build_levels_scalar(keys: Any, fanout: int = 2,
                        sample_every: int = DEFAULT_SAMPLE_EVERY,
                        aggregate: Optional[AggregateSpec] = None,
                        payload: Any = None) -> TreeLevels:
    """Reference bottom-up multiway merge build.

    Produces a tree identical to :func:`build_levels_numpy`; kept
    separate because it mirrors the paper's merge-based construction
    (the bridges fall out of the merge by "persisting the input
    iterators", Section 4.2) and because the tests cross-validate the
    two. Each merged level lives until the next one is merged from it.
    """
    levels = _new_levels(keys, fanout, sample_every, aggregate, payload)
    n = levels.n
    height = num_levels(n, fanout)
    order = np.arange(n, dtype=np.int64)
    prev = levels.keys[0]
    for level in range(1, height):
        child_len = fanout ** (level - 1)
        parent_len = child_len * fanout
        out = np.empty_like(prev)
        out_order = np.empty_like(order)
        # source[p]: slab offset of the input entry output position p
        # took — the persisted input iterators.
        source = np.empty(n, dtype=np.int64)
        for slab_start in range(0, n, parent_len):
            slab_stop = min(slab_start + parent_len, n)
            heads = []
            stops = []
            for c in range(fanout):
                run_start = slab_start + c * child_len
                if run_start >= slab_stop:
                    break
                heads.append(run_start)
                stops.append(min(run_start + child_len, slab_stop))
            for out_pos in range(slab_start, slab_stop):
                # Stable pick: smallest key, ties resolved by child order.
                best = -1
                for c in range(len(heads)):
                    if heads[c] < stops[c] and (
                            best < 0 or prev[heads[c]] < prev[heads[best]]):
                        best = c
                out[out_pos] = prev[heads[best]]
                out_order[out_pos] = order[heads[best]]
                source[out_pos] = heads[best] - slab_start
                heads[best] += 1
        anchors, bridge = _bridge_from_sources(source, child_len, fanout,
                                               sample_every)
        levels.anchors.append(anchors)
        levels.bridges.append(bridge)
        if aggregate is not None:
            levels.agg_prefix.append(
                _permuted_prefix(aggregate, payload, out_order, parent_len, n))
        prev = out
        order = out_order
    return levels
