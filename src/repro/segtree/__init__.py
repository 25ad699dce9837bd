"""Segment trees (Leis et al. [27]) — the distributive-aggregate baseline.

A segment tree stores, per level, the aggregate of every aligned run of
``2**level`` input values. Any frame ``[lo, hi)`` is covered by O(log n)
runs whose precomputed aggregates merge in O(1) for distributive and
algebraic aggregates — the structure the paper's window operator already
uses for SUM/MIN/MAX/... and against which merge sort trees are compared.

``HolisticSegmentTree`` is the sorted-list-annotated variant (base
intervals [1], Table 1): each run keeps its values sorted, which supports
percentile queries in O((log n)^2) per frame — asymptotically worse than
the merge sort tree, included as the parallelisable holistic baseline.
"""

from repro.segtree.tree import SegmentTree
from repro.segtree.holistic import (
    HolisticSegmentTree,
    windowed_percentile_segtree,
)

__all__ = ["SegmentTree", "HolisticSegmentTree",
           "windowed_percentile_segtree"]
