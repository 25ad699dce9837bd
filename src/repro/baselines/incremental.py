"""Incremental algorithms of Wesley & Xu [38].

The aggregation state follows the frame as it slides:

* :class:`IncrementalDistinct` — a hash table from value to multiplicity;
  entering rows increment, leaving rows decrement, and the distinct count
  is the table size. O(1) amortised per frame delta, O(n) total for
  monotonic frames — the strongest competitor for framed distinct counts
  (Figure 10), but serial: a second worker would have to rebuild the
  table for its starting frame (Section 3.2).
* :class:`IncrementalPercentile` — a sorted array maintained with binary
  insertion/deletion. Each update shifts O(frame) elements, the paper's
  stated O(n^2) worst case (Table 1); the percentile itself is O(1) by
  index.

Both classes track ``work`` (elements inserted+deleted) so the parallel
cost model can account the frame-overlap savings and the re-buildup cost
under task-based parallelism.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.resilience.context import current_context


class IncrementalDistinct:
    """Multiplicity hash table over an evolving ``[lo, hi)`` row window."""

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = values
        self.counts: Dict[Any, int] = {}
        self.lo = 0
        self.hi = 0
        self.work = 0

    def _add(self, row: int) -> None:
        value = self.values[row]
        self.counts[value] = self.counts.get(value, 0) + 1
        self.work += 1

    def _remove(self, row: int) -> None:
        value = self.values[row]
        remaining = self.counts[value] - 1
        if remaining:
            self.counts[value] = remaining
        else:
            del self.counts[value]
        self.work += 1

    def move_to(self, lo: int, hi: int) -> None:
        """Slide the window to ``[lo, hi)``, applying the frame delta."""
        lo = max(lo, 0)
        hi = max(hi, lo)
        if lo >= self.hi or hi <= self.lo:
            # Disjoint (or empty) target: drop everything and rebuild.
            self.counts.clear()
            self.work += self.hi - self.lo
            self.lo, self.hi = lo, lo
        while self.hi < hi:
            self._add(self.hi)
            self.hi += 1
        while self.lo > lo:
            self.lo -= 1
            self._add(self.lo)
        while self.hi > hi:
            self.hi -= 1
            self._remove(self.hi)
        while self.lo < lo:
            self._remove(self.lo)
            self.lo += 1

    @property
    def distinct(self) -> int:
        """The COUNT DISTINCT of the current window."""
        return len(self.counts)


def incremental_distinct_count(values: Sequence[Any], start: np.ndarray,
                               end: np.ndarray) -> List[int]:
    """Framed COUNT DISTINCT over continuous frames, incrementally."""
    state = IncrementalDistinct(values)
    out: List[int] = []
    ctx = current_context()
    for i in range(len(start)):
        ctx.tick(i)
        state.move_to(int(start[i]), int(end[i]))
        out.append(state.distinct)
    return out


class IncrementalPercentile:
    """Sorted array over an evolving row window (O(frame) per update)."""

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = values
        self.sorted: List[Any] = []
        self.lo = 0
        self.hi = 0
        self.work = 0

    def _add(self, row: int) -> None:
        bisect.insort(self.sorted, self.values[row])
        self.work += 1

    def _remove(self, row: int) -> None:
        index = bisect.bisect_left(self.sorted, self.values[row])
        del self.sorted[index]
        self.work += 1

    def move_to(self, lo: int, hi: int) -> None:
        """Slide the window to ``[lo, hi)``, applying the frame delta."""
        lo = max(lo, 0)
        hi = max(hi, lo)
        if lo >= self.hi or hi <= self.lo:
            self.work += self.hi - self.lo
            self.sorted.clear()
            self.lo, self.hi = lo, lo
        while self.hi < hi:
            self._add(self.hi)
            self.hi += 1
        while self.lo > lo:
            self.lo -= 1
            self._add(self.lo)
        while self.hi > hi:
            self.hi -= 1
            self._remove(self.hi)
        while self.lo < lo:
            self._remove(self.lo)
            self.lo += 1

    def kth(self, k: int) -> Any:
        """The k-th smallest value of the current window (0-based)."""
        return self.sorted[k]

    def __len__(self) -> int:
        return len(self.sorted)


def incremental_percentile_disc(values: Sequence[Any], start: np.ndarray,
                                end: np.ndarray,
                                fraction: float) -> List[Optional[Any]]:
    """Framed PERCENTILE_DISC over continuous frames, incrementally."""
    state = IncrementalPercentile(values)
    out: List[Optional[Any]] = []
    ctx = current_context()
    for i in range(len(start)):
        ctx.tick(i)
        state.move_to(int(start[i]), int(end[i]))
        size = len(state)
        if size == 0:
            out.append(None)
            continue
        k = max(math.ceil(fraction * size) - 1, 0)
        out.append(state.kth(k))
    return out

