"""Indexes for framed DENSE_RANK (Section 4.4).

DENSE_RANK needs the number of *distinct* rank-key classes inside the
frame that compare below the current row — a three-dimensional range
count (frame position x rank key x previous-occurrence index) that a
two-dimensional merge sort tree cannot answer. :class:`DenseRankIndex`
picks one of two layouts from its keys.

Over at most 64 classes, a :class:`~repro.rangetree.dense.PresenceTable`
keeps the set of classes of every power-of-two run of rows as one word.
Two overlapping runs cover any frame and OR is idempotent, so a probe is
two gathers, an OR and a popcount: O(n log n) space, O(1) per row.

Over more classes, a :class:`~repro.rangetree.dense.RangeTree` follows
Bentley [6, 7] and layers the dimensions: an outer merge sort tree over
frame positions sorted by rank key, each level carrying an inner one
over the previous occurrences in that key order, as tall as one outer
run. Every tree is cascaded: a probe searches two top levels once, then
only follows bridges. Space and query time are O(n (log n)^2), the
bounds the paper states for the range tree.

The presence words also serve SUM/AVG(DISTINCT) over at most 64 integer
classes: a :class:`~repro.rangetree.dense.DistinctTable` ORs a frame's
pieces into one word, counts its bits and sums its classes through a
byte table.
"""

from repro.rangetree.dense import DenseRankIndex

__all__ = ["DenseRankIndex"]
