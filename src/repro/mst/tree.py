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

Queries are O(log n) with fractional cascading (the default): one binary
search on the top level, then every child-run lower bound comes from the
level's bridge (see :mod:`repro.mst.build`). Without bridges they are
O((log n)^2), one binary search per run visited; that variant is kept for
the cascading ablation, as an oracle for the cascaded walk, and for the
DENSE_RANK index's inner trees. The batched kernels in
:mod:`repro.mst.vectorized` read the same bridges.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.mst.aggregates import AggregateSpec
from repro.mst.build import (
    DEFAULT_SAMPLE_EVERY,
    TreeLevels,
    build_levels_numpy,
    build_levels_scalar,
)

SlabRanges = Sequence[Tuple[int, int]]
KeyRanges = Sequence[Tuple[Optional[int], Optional[int]]]


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
        Bridge anchor spacing ``k`` (a power of two, at most 256): one
        int anchor per ``k`` positions, a uint8 offset per position.
    cascading:
        Build the fractional-cascading bridges. Without them queries fall
        back to one binary search per covering run, and the batched
        kernels refuse the tree.
    aggregate / payload:
        Annotate every level with per-run prefix aggregate states of
        ``payload`` (Section 4.3) to enable :meth:`aggregate`.
    builder:
        ``"numpy"`` (default) or ``"scalar"`` — both produce identical
        levels; see :mod:`repro.mst.build`.
    """

    def __init__(self, keys: Any, *, fanout: int = 2,
                 sample_every: int = DEFAULT_SAMPLE_EVERY,
                 cascading: bool = True,
                 aggregate: Optional[AggregateSpec] = None,
                 payload: Any = None, builder: str = "numpy") -> None:
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        build = {"numpy": build_levels_numpy,
                 "scalar": build_levels_scalar}.get(builder)
        if build is None:
            raise ValueError(f"unknown builder {builder!r}")
        self.levels: TreeLevels = build(
            keys, fanout=fanout, sample_every=sample_every,
            cascading=cascading, aggregate=aggregate, payload=payload)
        self.fanout = fanout
        self.sample_every = sample_every
        self.cascading = cascading
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
        """Actual bytes held by level arrays, bridges and annotations."""
        total = sum(level.nbytes for level in self.levels.keys)
        total += sum(b.nbytes for b in self.levels.anchors + self.levels.bridges
                     if b is not None)
        for prefix in self.levels.agg_prefix:
            if isinstance(prefix, np.ndarray):
                total += prefix.nbytes
            else:
                total += 8 * len(prefix)
        return total

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _normalize_slab_ranges(self, ranges: SlabRanges) -> List[Tuple[int, int]]:
        out = []
        for lo, hi in ranges:
            lo = max(0, int(lo))
            hi = min(self.n, int(hi))
            if lo < hi:
                out.append((lo, hi))
        return out

    def _thresholds(self, key_ranges: KeyRanges) -> List[Tuple[int, int]]:
        """Flatten key ranges into signed lower-bound thresholds.

        ``count(key in ranges) = sum(sign * lower_bound(threshold))``.
        """
        thresholds: List[Tuple[int, int]] = []
        for lo, hi in key_ranges:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(
                    f"inverted key range [{lo}, {hi}) in merge sort tree "
                    f"query")
            if hi is not None:
                thresholds.append((int(hi), +1))
            else:
                thresholds.append((None, +1))  # type: ignore[arg-type]
            if lo is not None:
                thresholds.append((int(lo), -1))
        return thresholds

    def _top(self) -> Tuple[int, int]:
        """(level, run_length) of the topmost (fully sorted) level."""
        level = self.height - 1
        return level, self.fanout ** level

    def _lower_bound_top(self, threshold: Optional[int]) -> int:
        if threshold is None:
            return self.n
        top = self.levels.keys[self.height - 1]
        return int(np.searchsorted(top, threshold, side="left"))

    def _run_lower_bound(self, level: int, start: int, stop: int,
                         threshold: Optional[int]) -> int:
        """Binary search inside one run; position relative to ``start``."""
        if threshold is None:
            return stop - start
        keys = self.levels.keys[level]
        return int(np.searchsorted(keys[start:stop], threshold, side="left"))

    def _cascade_bounds(self, level: int, slab_start: int,
                        bounds: List[int],
                        thresholds: List[Tuple[Optional[int], int]]
                        ) -> List[List[int]]:
        """Translate parent-run lower bounds into per-child lower bounds.

        ``bounds[t]`` is the lower bound (relative to ``slab_start``) of
        threshold ``t`` inside the parent run at ``level``. Returns
        ``child_bounds[c][t]`` relative to each child-run start at
        ``level - 1``. Uses bridges when available (O(1) per threshold
        and child), binary search otherwise.
        """
        fanout = self.fanout
        child_len = self.fanout ** (level - 1)
        slab_stop = min(slab_start + child_len * fanout, self.n)
        starts = [slab_start + c * child_len for c in range(fanout)]
        sizes = [max(min(child_len, slab_stop - start), 0)
                 for start in starts]
        bridged = self.levels.bridges[level] is not None
        per_threshold: List[List[int]] = []
        for (threshold, _sign), parent_bound in zip(thresholds, bounds):
            if threshold is None:
                per_threshold.append(sizes)
            elif bridged:
                edges = [0, *self.levels.child_prefixes(level, slab_start,
                                                        parent_bound),
                         parent_bound]
                per_threshold.append([b - a for a, b in zip(edges,
                                                            edges[1:])])
            else:
                per_threshold.append([
                    self._run_lower_bound(level - 1, start, start + size,
                                          threshold) if size else 0
                    for start, size in zip(starts, sizes)])
        return [[row[c] for row in per_threshold] for c in range(fanout)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count(self, slab_ranges: SlabRanges, key_ranges: KeyRanges) -> int:
        """Number of entries with slab position in ``slab_ranges`` and key
        value in ``key_ranges`` — the two-dimensional range count at the
        heart of framed COUNT DISTINCT and rank functions."""
        slab_ranges = self._normalize_slab_ranges(slab_ranges)
        thresholds = self._thresholds(key_ranges)
        if not slab_ranges or not thresholds or self.n == 0:
            return 0
        top_level, _ = self._top()
        top_bounds = [self._lower_bound_top(t) for t, _ in thresholds]
        total = 0
        for lo, hi in slab_ranges:
            total += self._count_descend(top_level, 0, top_bounds,
                                         thresholds, lo, hi)
        return total

    def _count_descend(self, level: int, slab_start: int, bounds: List[int],
                       thresholds: List[Tuple[Optional[int], int]],
                       lo: int, hi: int) -> int:
        run_len = self.fanout ** level
        slab_stop = min(slab_start + run_len, self.n)
        if slab_stop <= lo or hi <= slab_start:
            return 0
        if lo <= slab_start and slab_stop <= hi:
            return sum(sign * bound
                       for (_, sign), bound in zip(thresholds, bounds))
        child_bounds = self._cascade_bounds(level, slab_start, bounds,
                                            thresholds)
        child_len = run_len // self.fanout
        total = 0
        for c in range(self.fanout):
            child_start = slab_start + c * child_len
            if child_start >= slab_stop:
                break
            total += self._count_descend(level - 1, child_start,
                                         child_bounds[c], thresholds, lo, hi)
        return total

    def count_below(self, lo: int, hi: int, threshold: int) -> int:
        """Entries in slab range ``[lo, hi)`` with key strictly below
        ``threshold`` — the Section 4.2 distinct-count query."""
        return self.count([(lo, hi)], [(None, threshold)])

    def aggregate(self, slab_ranges: SlabRanges, key_below: int) -> Any:
        """Merge the aggregate states of all entries in ``slab_ranges``
        with key strictly below ``key_below`` (Section 4.3).

        Returns the *finalized* aggregate value. Requires the tree to have
        been built with ``aggregate=...`` and ``payload=...``.
        """
        spec = self.aggregate_spec
        if spec is None:
            raise ValueError("tree was built without aggregate annotations")
        slab_ranges = self._normalize_slab_ranges(slab_ranges)
        thresholds: List[Tuple[Optional[int], int]] = [(int(key_below), +1)]
        state = spec.identity
        if self.n == 0 or not slab_ranges:
            return spec.finalize(state)
        top_level, _ = self._top()
        top_bounds = [self._lower_bound_top(key_below)]
        for lo, hi in slab_ranges:
            state = self._aggregate_descend(top_level, 0, top_bounds,
                                            thresholds, lo, hi, state)
        return spec.finalize(state)

    def _aggregate_descend(self, level: int, slab_start: int,
                           bounds: List[int],
                           thresholds: List[Tuple[Optional[int], int]],
                           lo: int, hi: int, state: Any) -> Any:
        spec = self.aggregate_spec
        run_len = self.fanout ** level
        slab_stop = min(slab_start + run_len, self.n)
        if slab_stop <= lo or hi <= slab_start:
            return state
        if lo <= slab_start and slab_stop <= hi:
            bound = bounds[0]
            if bound > 0:
                prefix = self.levels.agg_prefix[level]
                state = spec.merge(state, prefix[slab_start + bound - 1])
            return state
        child_bounds = self._cascade_bounds(level, slab_start, bounds,
                                            thresholds)
        child_len = run_len // self.fanout
        for c in range(self.fanout):
            child_start = slab_start + c * child_len
            if child_start >= slab_stop:
                break
            state = self._aggregate_descend(level - 1, child_start,
                                            child_bounds[c], thresholds,
                                            lo, hi, state)
        return state

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
        thresholds = self._thresholds(key_ranges)
        if self.n == 0:
            raise IndexError("select from an empty tree")
        level, _ = self._top()
        slab_start = 0
        bounds = [self._lower_bound_top(t) for t, _ in thresholds]
        qualifying = sum(sign * b for (_, sign), b in zip(thresholds, bounds))
        if k >= qualifying:
            raise IndexError(
                f"select index {k} out of range ({qualifying} qualifying)")
        remaining = k
        while level > 0:
            child_bounds = self._cascade_bounds(level, slab_start, bounds,
                                                thresholds)
            child_len = self.fanout ** (level - 1)
            for c in range(self.fanout):
                child_start = slab_start + c * child_len
                if child_start >= self.n:
                    break
                count_c = sum(sign * b for (_, sign), b
                              in zip(thresholds, child_bounds[c]))
                if remaining < count_c:
                    slab_start = child_start
                    bounds = child_bounds[c]
                    break
                remaining -= count_c
            else:  # pragma: no cover - guarded by the qualifying check
                raise AssertionError("descent failed to find a child")
            level -= 1
        return slab_start, int(self.levels.keys[0][slab_start])

    def count_qualifying(self, key_ranges: KeyRanges) -> int:
        """Total entries whose key falls in ``key_ranges``."""
        return self.count([(0, self.n)], key_ranges)

    # ------------------------------------------------------------------
    # self-verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the structural invariants every query relies on.

        Cheap, fully vectorised checks (O(n) per level, no per-entry
        Python loop) intended for the cache/spill reload path: a tree
        that deserialised without error can still be silently wrong,
        and a wrong tree answers every count/select/aggregate wrong.
        Raises ``ValueError`` naming the first violated invariant.

        Checked: equal level lengths; run-sortedness of every level;
        multiset equality between the input level and the fully sorted
        top level; every cascading bridge decodes to the stable merge of
        its level's child runs; prefix-aggregate annotation shape and
        (where the aggregate's semantics pin it down) monotonicity.
        """
        levels = self.levels
        n = levels.n
        if n == 0:
            return
        positions = np.arange(n, dtype=np.int64)
        for level, keys in enumerate(levels.keys):
            if len(keys) != n:
                raise ValueError(
                    f"level {level} has {len(keys)} entries, expected {n}")
            if level == 0 or n < 2:
                continue
            run = levels.run_length(level)
            interior = (positions[1:] % run) != 0
            descending = keys[1:] < keys[:-1]
            if bool(np.any(interior & descending)):
                where = int(np.flatnonzero(interior & descending)[0]) + 1
                raise ValueError(
                    f"level {level} not sorted within its runs of {run} "
                    f"(first violation at position {where})")
        if levels.height > 1:
            top = levels.keys[-1]
            if not np.array_equal(np.sort(levels.keys[0]), top):
                raise ValueError(
                    "top level is not a permutation of the input level")
        for level in range(1, levels.height):
            self._check_bridge(level, positions)
        self._check_agg_prefix(positions)

    def _check_bridge(self, level: int, positions: np.ndarray) -> None:
        """The bridge must describe the stable merge of the level's child
        runs: decoding it gives every entry's source child, and that
        child's next entry must be the entry itself."""
        levels = self.levels
        anchors, bridge = levels.anchors[level], levels.bridges[level]
        if bridge is None and anchors is None:
            return
        n = levels.n
        fanout = self.fanout
        k = levels.sample_every
        shapes = ((fanout - 1, n + 1), (fanout - 1, -(-(n + 1) // k)))
        if bridge is None or anchors is None or \
                (bridge.shape, anchors.shape) != shapes:
            raise ValueError(
                f"level {level} bridge arrays malformed, expected shapes "
                f"{shapes}")
        # counts[c + 1, p]: of the first p entries, those from children
        # 0..c; row 0 (none) and row fanout (all) complete the table.
        counts = np.vstack([
            np.zeros(n + 1, dtype=np.int64),
            np.repeat(anchors.astype(np.int64), k, axis=1)[:, :n + 1]
            + bridge,
            np.arange(n + 1, dtype=np.int64)])
        steps = np.diff(counts, axis=1)
        if bool(bridge[:, ::k].any()) or bool(counts[:, 0].any()) or \
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
        keys = levels.keys[level]
        equal = keys[1:] == keys[:-1]
        unstable = (slab[1:] == slab[:-1]) & equal & (source[1:] < source[:-1])
        if not np.array_equal(levels.keys[level - 1][run_start + taken],
                              keys) or bool(unstable.any()):
            raise ValueError(
                f"level {level} bridge is not the stable merge of its "
                f"child runs")

    def _check_agg_prefix(self, positions: np.ndarray) -> None:
        levels = self.levels
        spec = self.aggregate_spec
        n = levels.n
        for level, prefix in enumerate(levels.agg_prefix):
            if len(prefix) != n:
                raise ValueError(
                    f"level {level} aggregate prefix has {len(prefix)} "
                    f"entries, expected {n}")
            if not isinstance(prefix, np.ndarray) or spec is None:
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
