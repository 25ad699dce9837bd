"""Sorted-list-annotated segment tree for percentiles (base intervals).

Each aligned power-of-two run keeps its values sorted. A frame percentile
is answered by covering the frame with O(log n) runs and selecting the
k-th smallest element of their union with a binary search over the value
domain (using the fully sorted top level as the candidate order).

Complexity per query: O((log n)^3) in this implementation — the paper
credits the technique with O((log n)^2) via a more elaborate multi-list
selection; either way it is asymptotically worse than the merge sort
tree's O(log n), which is the comparison the paper draws in Table 1.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np


class HolisticSegmentTree:
    """Percentile-capable segment tree over a numeric array."""

    def __init__(self, values: Any) -> None:
        base = np.asarray(values, dtype=np.float64)
        self.n = len(base)
        self.levels: List[np.ndarray] = [base.copy()]
        while len(self.levels) == 1 or 2 ** (len(self.levels) - 1) < self.n:
            prev = self.levels[-1]
            run = 2 ** len(self.levels)
            nxt = prev.copy()
            for start in range(0, self.n, run):
                stop = min(start + run, self.n)
                nxt[start:stop] = np.sort(nxt[start:stop])
            self.levels.append(nxt)
            if run >= self.n:
                break

    def _covering_runs(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        runs = []
        level = 0
        length = 1
        while lo < hi:
            parent = length * 2
            if lo % parent != 0 and lo < hi:
                runs.append((level, lo, lo + length))
                lo += length
            if hi % parent != 0 and lo < hi:
                runs.append((level, hi - length, hi))
                hi -= length
            level += 1
            length = parent
        return runs

    def _count_at_most(self, runs: List[Tuple[int, int, int]],
                       value: float) -> int:
        total = 0
        for level, start, stop in runs:
            arr = self.levels[level]
            total += int(np.searchsorted(arr[start:stop], value,
                                         side="right"))
        return total

    def kth_smallest(self, lo: int, hi: int, k: int) -> float:
        """The k-th (0-based) smallest of ``values[lo:hi]``."""
        lo = max(0, lo)
        hi = min(self.n, hi)
        if not 0 <= k < hi - lo:
            raise IndexError(f"k={k} out of range for frame [{lo}, {hi})")
        runs = self._covering_runs(lo, hi)
        top = self.levels[-1]
        # Binary search over the globally sorted top level: the smallest
        # candidate value v with at least k+1 frame elements <= v.
        low, high = 0, self.n - 1
        while low < high:
            mid = (low + high) // 2
            if self._count_at_most(runs, top[mid]) >= k + 1:
                high = mid
            else:
                low = mid + 1
        return float(top[low])

    def percentile_disc(self, lo: int, hi: int, fraction: float) -> float:
        """PERCENTILE_DISC over the frame ``[lo, hi)``."""
        count = min(self.n, hi) - max(0, lo)
        if count <= 0:
            raise IndexError("empty frame")
        k = max(int(np.ceil(fraction * count)) - 1, 0)
        return self.kth_smallest(lo, hi, k)

    def memory_bytes(self) -> int:
        return sum(level.nbytes for level in self.levels)


def windowed_percentile_segtree(values: Sequence[Any], start: np.ndarray,
                                end: np.ndarray,
                                fraction: float) -> List[Optional[Any]]:
    """PERCENTILE_DISC(fraction) per frame ``[start[i], end[i])`` (None
    for an empty one): every frame is an independent tree query, so the
    frames may move in any order. Integer inputs come back as ints."""
    tree = HolisticSegmentTree(values)
    integral = np.issubdtype(np.asarray(values).dtype, np.integer)
    out: List[Optional[Any]] = []
    for lo, hi in zip(np.asarray(start).tolist(), np.asarray(end).tolist()):
        if lo >= hi:
            out.append(None)
            continue
        value = tree.percentile_disc(lo, hi, fraction)
        out.append(int(value) if integral else value)
    return out
