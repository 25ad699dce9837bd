"""Memory accounting for merge sort trees (Section 5.1 / Section 6.6).

The paper gives the element count of a fanout-``f``, sampling-``k`` tree
over ``n`` entries as::

    ceil(log_f(n)) * n  +  (ceil(log_f(n)) - 1) * n * f / k

(the sorted levels above the input, plus one ``f``-wide bridge row per
``k`` elements on each level that has a parent). With 32-bit indices this
reproduces the paper's Section 6.6 numbers: 12.4 GB for ``f=16, k=4`` and
4.4 GB for ``f=k=32`` at 100 million elements.

The trees this package builds keep a different layout
(:func:`live_tree_bytes`): level 0, the top level's key counts and one
bridge per level above the input, but no sorted level in between. At
the default ``k = 1`` a bridge is ``f - 1`` int counts per position;
at ``k > 1`` it is ``f - 1`` uint8 offsets per position plus an int
anchor every ``k`` positions — unlike the paper's sampled pointer rows,
the offsets grow with ``f``, not with ``f / k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mst.build import choose_index_dtype
from repro.mst.decompose import num_levels


def _levels_above_input(n: int, fanout: int) -> int:
    """ceil(log_f(n)) computed without floating point noise."""
    if n <= 1:
        return 0
    levels = 0
    length = 1
    while length < n:
        length *= fanout
        levels += 1
    return levels


def tree_memory_elements(n: int, fanout: int, sample_every: int) -> float:
    """The paper's closed-form element count (Section 5.1)."""
    height = _levels_above_input(n, fanout)
    return height * n + max(height - 1, 0) * n * fanout / sample_every


@dataclass(frozen=True)
class MemoryModel:
    """Predicted memory footprint of a merge sort tree."""

    n: int
    fanout: int
    sample_every: int
    element_bytes: int = 4

    @property
    def elements(self) -> float:
        """Total stored elements per the Section 5.1 formula."""
        return tree_memory_elements(self.n, self.fanout, self.sample_every)

    @property
    def bytes(self) -> float:
        """Predicted bytes (elements x element width)."""
        return self.elements * self.element_bytes

    @property
    def gigabytes(self) -> float:
        """Predicted size in (decimal) gigabytes, as the paper reports."""
        return self.bytes / 1e9

    def overhead_factor(self, base_bytes_per_row: int = 16) -> float:
        """Tree memory relative to a base per-row footprint, mirroring the
        Section 6.6 'factor of 2.75' style comparison."""
        return self.bytes / (self.n * base_bytes_per_row)

    def __str__(self) -> str:
        return (f"MST(n={self.n:,}, f={self.fanout}, k={self.sample_every}): "
                f"{self.elements:,.0f} elements, {self.gigabytes:.2f} GB "
                f"at {self.element_bytes} B/element")


def _bridge_bytes(n: int, fanout: int, sample_every: int) -> int:
    """Bytes of one level's bridge (:func:`repro.mst.build._bridge_from_sources`):
    ``f - 1`` rows of ``n + 1`` int counts at ``k = 1``, of ``n + 1``
    uint8 offsets plus ``ceil((n + 1) / k)`` int anchors otherwise."""
    width = n + 1
    index_bytes = choose_index_dtype(width).itemsize
    if sample_every == 1:
        return (fanout - 1) * width * index_bytes
    return (fanout - 1) * (width + -(-width // sample_every) * index_bytes)


def _key_counts_bytes(n: int) -> int:
    """Bytes of the top-level key counts of ``n`` keys spanning at most
    ``n`` values (:class:`repro.mst.build.KeyCounts`): ``n + 1`` ints."""
    return (n + 1) * choose_index_dtype(n + 1).itemsize


def live_tree_bytes(n: int, fanout: int, sample_every: int,
                    key_bytes: int = 4,
                    table_bytes: Optional[int] = None) -> int:
    """Bytes of the layout :mod:`repro.mst.build` materialises: level
    0's keys, the top-level key counts (``table_bytes``; by default
    those of keys spanning at most ``n`` values, as every key the
    window evaluators build does) and one bridge per level above the
    input (:func:`_bridge_bytes`)."""
    height = num_levels(n, fanout)
    if table_bytes is None:
        table_bytes = _key_counts_bytes(n)
    return (n * key_bytes + table_bytes
            + (height - 1) * _bridge_bytes(n, fanout, sample_every))


def range_tree_bytes(n: int, fanout: int, sample_every: int) -> int:
    """Bytes of a :class:`~repro.rangetree.dense.RangeTree` over ``n``
    dense rank keys: ``prev`` in input order, the key counts of the
    rank keys and of ``prev``, and ``2H + H(H + 1)/2`` bridges as in
    :func:`live_tree_bytes` for ``H`` levels above the input (outer,
    prev, and ``L`` per inner tree)."""
    above = num_levels(n, fanout) - 1
    keys = n * choose_index_dtype(n).itemsize + 2 * _key_counts_bytes(n)
    return keys + (2 * above + above * (above + 1) // 2) \
        * _bridge_bytes(n, fanout, sample_every)


def dense_rank_index_bytes(n: int, classes: int, fanout: int,
                           sample_every: int) -> int:
    """Bytes of a :class:`~repro.rangetree.DenseRankIndex` over ``n``
    dense rank keys in ``[0, classes)``: at most ``WORD_BITS`` classes
    take a presence table (``prev`` in input order and its words, each
    of :func:`~repro.rangetree.dense.presence_dtype`), more take the
    range tree (:func:`range_tree_bytes`)."""
    from repro.rangetree.dense import (WORD_BITS, presence_dtype,
                                       presence_words)
    if classes > WORD_BITS:
        return range_tree_bytes(n, fanout, sample_every)
    return n * choose_index_dtype(n).itemsize \
        + presence_words(n) * presence_dtype(classes).itemsize


def distinct_table_bytes(n: int, classes: int) -> int:
    """Bytes of a :class:`~repro.rangetree.dense.DistinctTable` over
    ``n`` kept values of ``classes`` integer classes: its presence words,
    each of :func:`~repro.rangetree.dense.presence_dtype`, and the int64
    byte table of class sums, 256 entries per byte of a word."""
    from repro.rangetree.dense import presence_dtype, presence_words
    width = presence_dtype(classes).itemsize
    return presence_words(n) * width + width * 256 * 8


def measured_vs_model(tree) -> dict:
    """Compare a live tree's measured bytes against the live layout's
    prediction (``model_bytes``) and the paper's closed form plus the
    retained level 0 (``paper_bytes``).

    The two forms part twice: the live tree keeps no sorted level
    between level 0 and the top, and its bridges cost ``f - 1`` ints
    per entry and level at ``k = 1``, about ``f - 1`` bytes at ``k >
    1`` (see :func:`live_tree_bytes`), against the paper's ``f / k``
    pointers. So ``paper_ratio`` is well below 1 at ``f = 2`` and grows
    with ``f``.
    """
    levels = tree.levels
    predicted = live_tree_bytes(tree.n, tree.fanout, tree.sample_every,
                                key_bytes=levels.keys[0].itemsize,
                                table_bytes=levels.top.table.nbytes)
    paper = MemoryModel(tree.n, tree.fanout, tree.sample_every).bytes \
        + tree.n * levels.keys[0].itemsize
    measured = tree.memory_bytes()
    return {
        "measured_bytes": measured,
        "model_bytes": predicted,
        "ratio": measured / predicted if predicted else float("nan"),
        "paper_bytes": paper,
        "paper_ratio": measured / paper if paper else float("nan"),
    }
