"""The :class:`MergeSortTree` and its three query kinds.

Terminology used throughout:

* **slab** / **slab position** — the position of an entry in the level-0
  (input) order. For a framed COUNT DISTINCT the slab order is the window
  frame order; for a percentile tree it is the function's ORDER BY order
  (the tree is built over the permutation array, Section 4.5).
* **key** — the integer value stored in the tree: a previous-occurrence
  index (distinct aggregates), a dense rank key (rank functions), or a
  frame position (percentiles/value functions).
* **slab ranges** — a list of disjoint half-open ``[lo, hi)`` intervals of
  slab positions; a frame with EXCLUDE holes is up to three such
  intervals (Section 4.7).
* **key ranges** — half-open intervals of key values; ``None`` bounds
  mean unbounded.

Every query is O(log n) with fractional cascading: one lookup in the top
level's key counts, then every child-run bound comes from the level's
bridge (see :mod:`repro.mst.build`). The methods here are one-row calls into
the batched kernels of :mod:`repro.mst.vectorized`, the one query path
the window operator runs too.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.mst.aggregates import AggregateSpec
from repro.mst.build import (
    DEFAULT_SAMPLE_EVERY,
    KeyCounts,
    TreeLevels,
    build_levels_numpy,
)
from repro.mst.vectorized import (
    batched_aggregate,
    batched_count,
    batched_select,
)

SlabRanges = Sequence[Tuple[int, int]]
KeyRanges = Sequence[Tuple[Optional[int], Optional[int]]]

_INT64 = np.iinfo(np.int64)


def _slab_arrays(slab_ranges: SlabRanges) -> Tuple[np.ndarray, np.ndarray]:
    """``lo``/``hi`` arrays of the slab ranges; the kernels clip them."""
    pairs = np.array(list(slab_ranges), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _key_arrays(key_ranges: KeyRanges) -> Tuple[np.ndarray, np.ndarray]:
    """``key_lo``/``key_hi`` arrays of the key ranges, ``None`` bounds
    widened to the int64 extremes."""
    lows, highs = [], []
    for lo, hi in key_ranges:
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(
                f"inverted key range [{lo}, {hi}) in merge sort tree query")
        lows.append(_INT64.min if lo is None else int(lo))
        highs.append(_INT64.max if hi is None else int(hi))
    return np.array(lows, dtype=np.int64), np.array(highs, dtype=np.int64)


class MergeSortTree:
    """A static merge sort tree over an integer key array.

    Parameters
    ----------
    keys:
        One-dimensional integer array; the level-0 slab order.
    fanout:
        Merge fanout ``f`` (Section 5.1; the paper's default is 32, the
        numpy-vectorised window paths prefer 2).
    sample_every:
        Bridge sampling ``k`` (a power of two, at most 256). The default
        ``k = 1`` stores one int count per position and column, read
        with one gather; ``k > 1`` one int anchor per ``k`` positions
        plus a uint8 offset per position, read with two.
    aggregate / payload:
        Annotate every level with per-run prefix aggregate states of
        ``payload`` (Section 4.3) to enable :meth:`aggregate`.
    """

    def __init__(self, keys: Any, *, fanout: int = 2,
                 sample_every: int = DEFAULT_SAMPLE_EVERY,
                 aggregate: Optional[AggregateSpec] = None,
                 payload: Any = None) -> None:
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.levels: TreeLevels = build_levels_numpy(
            keys, fanout=fanout, sample_every=sample_every,
            aggregate=aggregate, payload=payload)
        self.fanout = fanout
        self.sample_every = sample_every
        self.aggregate_spec = aggregate

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of entries in the tree."""
        return self.levels.n

    @property
    def height(self) -> int:
        """Number of levels, including the level-0 input."""
        return self.levels.height

    def memory_bytes(self) -> int:
        """Actual bytes held by level 0, the top-level key counts, the
        bridges and the annotations (an object-state annotation counts
        its pointer slots)."""
        levels = self.levels
        arrays = (levels.keys + [levels.top.table] + levels.anchors
                  + levels.bridges + levels.agg_prefix)
        return sum(a.nbytes for a in arrays if a is not None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count(self, slab_ranges: SlabRanges, key_ranges: KeyRanges) -> int:
        """Number of entries with slab position in ``slab_ranges`` and key
        value in ``key_ranges`` — the two-dimensional range count at the
        heart of framed COUNT DISTINCT and rank functions."""
        lo, hi = _slab_arrays(slab_ranges)
        key_lo, key_hi = _key_arrays(key_ranges)
        pieces = len(key_lo)
        return int(batched_count(
            self.levels, np.repeat(lo, pieces), np.repeat(hi, pieces),
            np.tile(key_hi, len(lo)), key_lo=np.tile(key_lo, len(lo))).sum())

    def count_below(self, lo: int, hi: int, threshold: int) -> int:
        """Entries in slab range ``[lo, hi)`` with key strictly below
        ``threshold`` — the Section 4.2 distinct-count query."""
        lo, hi = _slab_arrays([(lo, hi)])
        return int(batched_count(self.levels, lo, hi,
                                 np.array([threshold], dtype=np.int64))[0])

    def count_qualifying(self, key_ranges: KeyRanges) -> int:
        """Total entries whose key falls in ``key_ranges``."""
        return self.count([(0, self.n)], key_ranges)

    def aggregate(self, slab_ranges: SlabRanges, key_below: int) -> Any:
        """Merge the aggregate states of all entries in ``slab_ranges``
        with key strictly below ``key_below`` (Section 4.3).

        Returns the *finalized* aggregate value, ``finalize(identity)``
        when no entry qualifies. Requires the tree to have been built
        with ``aggregate=...`` and ``payload=...``.
        """
        spec = self.aggregate_spec
        if spec is None:
            raise ValueError("tree was built without aggregate annotations")
        lo, hi = _slab_arrays(slab_ranges)
        key_hi = np.full(len(lo), key_below, dtype=np.int64)
        if not batched_count(self.levels, lo, hi, key_hi).any():
            return spec.finalize(spec.identity)
        states = batched_aggregate(self.levels, lo, hi, key_hi, spec)
        return spec.finalize(spec.merge_many(states))

    def select(self, k: int, key_ranges: KeyRanges) -> Tuple[int, int]:
        """The ``k``-th (0-based, in slab order) entry whose key falls in
        ``key_ranges``. Returns ``(slab_position, key_value)``.

        For a percentile tree built over the permutation array, the slab
        order is the function order and the key is the frame position, so
        ``select(k, frame_ranges)`` finds the k-th smallest value inside
        the frame (Section 4.5, Figure 7).
        """
        if k < 0:
            raise IndexError("select index must be non-negative")
        key_lo, key_hi = _key_arrays(key_ranges)
        if self.n == 0:
            raise IndexError("select from an empty tree")
        qualifying = self.count_qualifying(key_ranges)
        if k >= qualifying:
            raise IndexError(
                f"select index {k} out of range ({qualifying} qualifying)")
        slabs, keys = batched_select(self.levels,
                                     np.array([k], dtype=np.int64),
                                     key_lo[:, None], key_hi[:, None])
        return int(slabs[0]), int(keys[0])

    # ------------------------------------------------------------------
    # self-verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the structural invariants every query relies on.

        Cheap, fully vectorised checks (O(n) per level, no per-entry
        Python loop), used as a test oracle: a tree that built without
        error can still be silently wrong, and a wrong tree answers
        every count/select/aggregate wrong.
        Raises ``ValueError`` naming the first violated invariant.

        The tree keeps only level 0, so every level above it is rebuilt
        from the level below through its bridge. Checked: every level
        above level 0 has a cascading bridge of the right shape (the
        queries need it) whose counts are
        cumulative child counts; the level it decodes to is sorted
        within its runs and is the stable merge of its child runs; the
        top level is the sorted input, and the top-level key counts
        count it; prefix-aggregate annotation shape and (where the
        aggregate's semantics pin it down) monotonicity.
        """
        levels = self.levels
        n = levels.n
        if n == 0:
            return
        positions = np.arange(n, dtype=np.int64)
        keys = levels.keys[0]
        for level in range(1, levels.height):
            keys = self._decode_level(level, keys, positions)
        if levels.height > 1 and not np.array_equal(np.sort(levels.keys[0]),
                                                    keys):
            raise ValueError(
                "top level is not a permutation of the input level")
        want = KeyCounts.of(levels.keys[0])
        top = levels.top
        if top is None or top.low != want.low or \
                not np.array_equal(top.table, want.table):
            raise ValueError(
                "top-level key counts do not count the input level")
        self._check_agg_prefix(positions)

    def _decode_level(self, level: int, below: np.ndarray,
                      positions: np.ndarray) -> np.ndarray:
        """Level ``level`` rebuilt from the level ``below`` it through
        its bridge. The bridge must describe the stable merge of the
        level's child runs: decoding it gives every entry's source
        child, that child's next entry is the entry, and the entries
        come out sorted within runs, ties in child order."""
        levels = self.levels
        anchors, bridge = levels.anchors[level], levels.bridges[level]
        n = levels.n
        fanout = self.fanout
        k = levels.sample_every
        shape = (fanout - 1, n + 1)
        anchor_shape = None if k == 1 else (fanout - 1, -(-(n + 1) // k))
        if bridge is None or bridge.shape != shape or \
                (anchors is None) != (anchor_shape is None) or \
                (anchors is not None and anchors.shape != anchor_shape):
            raise ValueError(
                f"level {level} bridge arrays missing or malformed, "
                f"expected shapes {shape} and {anchor_shape}")
        # counts[c + 1, p]: of the first p entries, those from children
        # 0..c; row 0 (none) and row fanout (all) complete the table.
        inner = levels.consumed(level, np.arange(fanout - 1)[:, None],
                                np.arange(n + 1)[None, :])
        counts = np.vstack([np.zeros(n + 1, dtype=np.int64),
                            inner.astype(np.int64),
                            np.arange(n + 1, dtype=np.int64)])
        steps = np.diff(counts, axis=1)
        if (k > 1 and bool(bridge[:, ::k].any())) or \
                bool(counts[:, 0].any()) or \
                bool((steps[1:] < steps[:-1]).any()) or \
                not bool(((steps == 0) | (steps == 1)).all()):
            raise ValueError(
                f"level {level} bridge counts are not cumulative child "
                f"counts")
        source = fanout - steps.sum(axis=0)
        parent_len = levels.run_length(level)
        child_len = parent_len // fanout
        slab = positions - positions % parent_len
        taken = (counts[source + 1, positions] - counts[source, positions]
                 - slab // fanout)
        run_start = slab + source * child_len
        stop = np.minimum(run_start + child_len, n)
        if bool((taken < 0).any()) or bool((run_start + taken >= stop).any()):
            raise ValueError(
                f"level {level} bridge takes more entries than a child "
                f"run holds")
        keys = below[run_start + taken]
        interior = (positions[1:] % parent_len) != 0
        descending = interior & (keys[1:] < keys[:-1])
        if bool(descending.any()):
            where = int(np.flatnonzero(descending)[0]) + 1
            raise ValueError(
                f"level {level} not sorted within its runs of {parent_len}: "
                f"its bridge does not decode to a merge (first violation "
                f"at position {where})")
        unstable = interior & (keys[1:] == keys[:-1]) & \
            (source[1:] < source[:-1])
        if bool(unstable.any()):
            raise ValueError(
                f"level {level} bridge is not the stable merge of its "
                f"child runs")
        return keys

    def _check_agg_prefix(self, positions: np.ndarray) -> None:
        levels = self.levels
        spec = self.aggregate_spec
        n = levels.n
        for level, prefix in enumerate(levels.agg_prefix):
            if len(prefix) != n:
                raise ValueError(
                    f"level {level} aggregate prefix has {len(prefix)} "
                    f"entries, expected {n}")
            if spec is None or prefix.dtype == object:
                continue
            if np.issubdtype(prefix.dtype, np.floating) and \
                    bool(np.isnan(prefix).any()):
                raise ValueError(
                    f"level {level} aggregate prefix contains NaN")
            run = levels.run_length(level)
            run_offset = positions - (positions // run) * run
            if spec.name == "count":
                if not np.array_equal(prefix, run_offset + 1):
                    raise ValueError(
                        f"level {level} count prefix is not the run "
                        f"position sequence")
            elif spec.name in ("min", "max") and n >= 2:
                interior = run_offset[1:] != 0
                if spec.name == "max":
                    bad = interior & (prefix[1:] < prefix[:-1])
                else:
                    bad = interior & (prefix[1:] > prefix[:-1])
                if bool(np.any(bad)):
                    raise ValueError(
                        f"level {level} {spec.name} prefix is not "
                        f"monotone within its runs")
