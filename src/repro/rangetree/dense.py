"""The layered index behind framed DENSE_RANK."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.mst.build import TreeLevels, _merge_orders, build_levels_numpy
from repro.mst.decompose import covering_runs, num_levels
from repro.preprocess.occurrences import previous_occurrence


def _lower_bound_in_runs(arr: np.ndarray, start: np.ndarray,
                         stop: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per query ``start + searchsorted(arr[start:stop], target)``: one
    binary search with all queries advanced in lock step."""
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


def _count_in_runs(levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                   key_hi: np.ndarray) -> np.ndarray:
    """Per query: entries at slab positions ``[lo, hi)`` with key below
    ``key_hi``, one binary search per covering run; no bridges needed.
    The index asks only for ranges inside one aligned run, so only the
    levels below it are searched — cheaper than a cascaded descent from
    the top."""
    total = np.zeros(len(lo), dtype=np.int64)
    for level, run_lo, run_hi, mask in covering_runs(
            levels.fanout, levels.height, lo, hi):
        idx = np.flatnonzero(mask)
        start = run_lo[idx]
        total[idx] += _lower_bound_in_runs(
            levels.keys[level], start, run_hi[idx], key_hi[idx]) - start
    return total


class DenseRankIndex:
    """Counts distinct rank-key classes below a threshold in a frame.

    ``keys[i]`` is row i's dense rank key (Figure 8 preprocessing). The
    dense rank of row i over frame ``[a, b)`` is::

        1 + count of entries j in [a, b) with keys[j] < keys[i]
            whose key class does not occur earlier in the frame

    The "does not occur earlier" condition is the same
    previous-occurrence trick as for distinct counts: ``prev[j] < a``.

    Layout: outer levels mirror a merge sort tree over frame positions
    with runs sorted by key, each derived from the level below by the
    tree build's merge (:func:`repro.mst.build._merge_orders`), with the
    previous-occurrence values carried along as payload. Every outer
    level ``L`` carries an inner tree (:class:`TreeLevels`) over the
    previous-occurrence values in that level's key order, answering
    "prev < a among the first p key-sorted entries of a run" as a 2-d
    count. That count stays inside one aligned outer run of
    ``fanout**L`` entries, so the inner tree of level ``L`` is built only
    ``L + 1`` levels tall, and carries no bridges.
    """

    def __init__(self, keys: Sequence[int], fanout: int = 2) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        self.n = len(keys)
        self.fanout = fanout
        height = num_levels(self.n, fanout)
        current_prev = previous_occurrence(keys)
        self.key_levels: List[np.ndarray] = [keys.copy()]
        self.inner: List[TreeLevels] = [self._inner_tree(current_prev, 0)]
        current_keys = self.key_levels[0]
        for level, order in _merge_orders(current_keys, fanout, height):
            current_keys = current_keys[order]
            current_prev = current_prev[order]
            self.key_levels.append(current_keys)
            self.inner.append(self._inner_tree(current_prev, level))

    def _inner_tree(self, prev: np.ndarray, level: int) -> TreeLevels:
        return build_levels_numpy(prev, fanout=self.fanout, cascading=False,
                                  height=level + 1)

    @property
    def prev(self) -> np.ndarray:
        """Previous occurrence of every key in the input order (level 0)."""
        return self.inner[0].keys[0]

    def batched_dense_rank(self, lo: np.ndarray, hi: np.ndarray,
                           keys: np.ndarray) -> np.ndarray:
        """DENSE_RANK of every row at once: row ``i`` has rank key
        ``keys[i]`` and frame ``[lo[i], hi[i])``.

        Peels the covering runs of each frame (the merge-sort-tree
        decomposition), locates each row's rank key inside the run's key
        order with a batched binary search, then counts first-in-frame
        occurrences among that key prefix with a batched 2-d count on
        the level's inner tree.
        """
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        total = np.ones(len(lo), dtype=np.int64)  # dense rank starts at 1
        for level, run_lo, run_hi, mask in covering_runs(
                self.fanout, len(self.key_levels), lo, hi):
            idx = np.flatnonzero(mask)
            start = run_lo[idx]
            bound = _lower_bound_in_runs(self.key_levels[level], start,
                                         run_hi[idx], keys[idx])
            total[idx] += _count_in_runs(self.inner[level], start, bound,
                                         lo[idx])
        return total

    def memory_bytes(self) -> int:
        return sum(level.nbytes for level in self.key_levels) + sum(
            level.nbytes for inner in self.inner for level in inner.keys)
