"""Range trees for framed DENSE_RANK (Section 4.4).

DENSE_RANK needs the number of *distinct* rank-key classes inside the
frame that compare below the current row — a three-dimensional range
count (frame position x rank key x previous-occurrence index) that a
two-dimensional merge sort tree cannot answer. Following Bentley [6, 7],
:class:`DenseRankIndex` layers the dimensions: an outer merge-sort-tree
decomposition over frame positions whose runs are sorted by rank key,
each level carrying an inner merge sort tree over the
previous-occurrence indices in that key order. The outer levels are
built by the merge sort tree's own level merge; the inner tree of outer
level ``L`` is only as tall as one outer run (``L + 1`` levels), since
its counts never leave one.

Space and query time are O(n (log n)^2), exactly the bounds the paper
states for the range-tree approach.
"""

from repro.rangetree.dense import DenseRankIndex

__all__ = ["DenseRankIndex"]
