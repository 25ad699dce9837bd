"""Merge sort trees (Section 4 of the paper).

The merge sort tree (MST) is a static index over an integer key array:
the intermediate sorted-run levels of a bottom-up, fanout-``f`` merge
sort, of which it keeps the input level, the top level's key counts and
each level's fractional-cascading bridge — enough to descend through
every level without storing its keys. Three query kinds run in O(log n)
each against the finished tree:

* :meth:`MergeSortTree.count` — two-dimensional range counting, the core
  of framed COUNT DISTINCT and the rank family (Sections 4.2 and 4.4);
* :meth:`MergeSortTree.aggregate` — combine per-run prefix aggregate
  states, the core of arbitrary framed DISTINCT aggregates (Section 4.3);
* :meth:`MergeSortTree.select` — find the k-th qualifying entry in slab
  order, the core of framed percentiles and value functions (Section 4.5).

All three run on the kernels in ``vectorized``, which answer all n
per-row queries of a window operator level by level, one cascaded
descent through the bridges; the tree's methods are one-row calls into
them.
"""

from repro.mst.aggregates import (
    AggregateSpec,
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    make_udaf,
)
from repro.mst.stats import MemoryModel, tree_memory_elements
from repro.mst.tree import MergeSortTree

__all__ = [
    "AggregateSpec",
    "AVG",
    "COUNT",
    "MAX",
    "MIN",
    "SUM",
    "make_udaf",
    "MergeSortTree",
    "MemoryModel",
    "tree_memory_elements",
]
