"""Range trees for framed DENSE_RANK (Section 4.4).

DENSE_RANK needs the number of *distinct* rank-key classes inside the
frame that compare below the current row — a three-dimensional range
count (frame position x rank key x previous-occurrence index) that a
two-dimensional merge sort tree cannot answer. Following Bentley [6, 7],
:class:`DenseRankIndex` layers the dimensions: an outer merge sort tree
over frame positions sorted by rank key, each level carrying an inner
one over the previous occurrences in that key order, as tall as one
outer run. Every tree is cascaded: a probe searches two top levels
once, then only follows bridges. Space and query time are
O(n (log n)^2), the bounds the paper states for the range tree.
"""

from repro.rangetree.dense import DenseRankIndex

__all__ = ["DenseRankIndex"]
