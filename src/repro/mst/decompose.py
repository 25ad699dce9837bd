"""The level structure of a fanout-``f`` merge sort tree.

A tree over ``n`` entries has runs of length ``f**level`` starting at
multiples of that length. Any half-open slab range ``[lo, hi)`` is
covered by at most ``2*(f-1)`` whole runs per level (Section 4.2: "at
most 2 binary searches per layer" for the binary case); the kernels in
:mod:`repro.mst.vectorized` read them off the range's two boundary
paths.
"""

from __future__ import annotations


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
