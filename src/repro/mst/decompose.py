"""Covering a query range with sorted runs of a merge sort tree.

A fanout-``f`` merge sort tree over ``n`` entries has runs of length
``f**level`` starting at multiples of that length. Any half-open slab
range ``[lo, hi)`` can be pieced together from at most ``2*(f-1)`` whole
runs per level (Section 4.2: "at most 2 binary searches per layer" for the
binary case): unaligned prefixes/suffixes are peeled off level by level
until the remaining range aligns to the next-coarser run length.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np


def covering_runs(fanout: int, height: int, lo: np.ndarray, hi: np.ndarray
                  ) -> Iterator[Tuple[int, np.ndarray, np.ndarray,
                                      np.ndarray]]:
    """Yield ``(level, run_start, run_stop, mask)`` batches that cover
    every query's ``[lo, hi)`` (``0 <= lo``, ``hi <= n``) with whole,
    aligned runs of a fanout-``f`` tree of ``height`` levels; ``mask``
    says which queries the batch's runs belong to.

    The order is the peel's, bottom-up: at each level, ``lo``'s side left
    to right, then ``hi``'s side right to left. It is the order in which
    :func:`repro.mst.vectorized.batched_aggregate` combines its covering
    runs' prefix states."""
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    length = 1
    for level in range(height):
        parent = length * fanout
        for _ in range(fanout - 1):
            mask = (lo % parent != 0) & (lo < hi)
            if not mask.any():
                break
            yield level, lo, lo + length, mask
            lo = np.where(mask, lo + length, lo)
        for _ in range(fanout - 1):
            mask = (hi % parent != 0) & (lo < hi)
            if not mask.any():
                break
            yield level, hi - length, hi, mask
            hi = np.where(mask, hi - length, hi)
        if not (lo < hi).any():
            break
        length = parent


def max_runs_per_level(fanout: int) -> int:
    """Upper bound on covering runs contributed by one level for one range."""
    return 2 * (fanout - 1)


def num_levels(n: int, fanout: int) -> int:
    """Number of levels of a fanout-``f`` tree over ``n`` entries.

    Level 0 is the unsorted input; the top level consists of one fully
    sorted run. A single-entry (or empty) input has exactly one level.
    """
    if n <= 1:
        return 1
    levels = 1
    length = 1
    while length < n:
        length *= fanout
        levels += 1
    return levels
