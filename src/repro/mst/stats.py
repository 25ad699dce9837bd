"""Memory accounting for merge sort trees (Section 5.1 / Section 6.6).

The paper gives the element count of a fanout-``f``, sampling-``k`` tree
over ``n`` entries as::

    ceil(log_f(n)) * n  +  (ceil(log_f(n)) - 1) * n * f / k

(the sorted levels above the input, plus one ``f``-wide bridge row per
``k`` elements on each level that has a parent). With 32-bit indices this
reproduces the paper's Section 6.6 numbers: 12.4 GB for ``f=16, k=4`` and
4.4 GB for ``f=k=32`` at 100 million elements.

The trees this package builds store exact per-position bridges instead
(:func:`live_tree_bytes`): about 1 byte per entry and level at ``f = 2``,
but ``f - 1`` bytes at larger fanouts.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def live_tree_bytes(n: int, fanout: int, sample_every: int,
                    key_bytes: int = 4) -> int:
    """Bytes of the layout :mod:`repro.mst.build` materialises: every
    level's keys (level 0 included), and on each level above it a bridge
    of ``f - 1`` uint8 offsets per position (``n + 1`` of them) plus one
    int32 anchor per ``k`` positions. Unlike the paper's sampled pointer
    rows, the offsets grow with ``f``, not with ``f / k``."""
    height = num_levels(n, fanout)
    width = n + 1
    bridge = (fanout - 1) * (width + -(-width // sample_every) * 4)
    return height * n * key_bytes + (height - 1) * bridge


def dense_rank_index_bytes(n: int, fanout: int, sample_every: int) -> int:
    """Bytes of a :class:`~repro.rangetree.DenseRankIndex` over ``n``
    keys: sorted int64 keys, ``prev`` in input and sorted order, and
    ``2H + H(H + 1)/2`` bridges as in :func:`live_tree_bytes` for ``H``
    levels above the input (outer, prev, and ``L`` per inner tree)."""
    above = num_levels(n, fanout) - 1
    width = n + 1
    anchor_bytes = choose_index_dtype(width).itemsize
    bridge = (fanout - 1) * (width + -(-width // sample_every) * anchor_bytes)
    keys = n * (8 + 2 * choose_index_dtype(n).itemsize)
    return keys + (2 * above + above * (above + 1) // 2) * bridge


def measured_vs_model(tree) -> dict:
    """Compare a live tree's measured bytes against the live layout's
    prediction (``model_bytes``) and the paper's closed form plus the
    retained level 0 (``paper_bytes``).

    The two forms part at the bridges: the paper prices ``f / k``
    pointers per entry and level, the live layout about ``f - 1`` bytes
    (see :func:`live_tree_bytes`), so ``paper_ratio`` grows with ``f``.
    """
    key_bytes = tree.levels.keys[0].itemsize
    predicted = live_tree_bytes(tree.n, tree.fanout, tree.sample_every,
                                key_bytes=key_bytes)
    paper = MemoryModel(tree.n, tree.fanout, tree.sample_every).bytes \
        + tree.n * key_bytes
    measured = tree.memory_bytes()
    return {
        "measured_bytes": measured,
        "model_bytes": predicted,
        "ratio": measured / predicted if predicted else float("nan"),
        "paper_bytes": paper,
        "paper_ratio": measured / paper if paper else float("nan"),
    }
