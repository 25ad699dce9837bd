"""Per-structure byte accounting: what the session ledger charges.

The paper's Section 5.1 / 6.6 memory model prices a merge sort tree at
``ceil(log_f n) * n`` level entries plus ``n * f / k`` cascading pointers
per bridged level. The live trees differ: they keep level 0 and the top
level's key counts, not the levels between, and a bridge is ``f - 1``
int counts per position at ``k = 1`` (uint8 offsets plus an int anchor
every ``k`` positions at ``k > 1``), per bridged level.
:func:`structure_breakdown` measures the live arrays of every index
structure the window evaluators build — key arrays, cascading bridges
and prefix-aggregate annotations separately — so the structure cache
charges real bytes, not estimates, to the session's
:class:`~repro.resilience.memory.MemoryGovernor`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class StructureSizeBreakdown:
    """Measured bytes of one index structure, by component."""

    levels: int = 0       # key arrays: level 0, top-level key counts
    pointers: int = 0     # fractional-cascading bridges (and anchors)
    prefixes: int = 0     # per-position prefix-aggregate annotations
    other: int = 0        # auxiliary storage (position lists, span tables)

    @property
    def total(self) -> int:
        return self.levels + self.pointers + self.prefixes + self.other

    def __add__(self, rhs: "StructureSizeBreakdown") -> "StructureSizeBreakdown":
        return StructureSizeBreakdown(
            self.levels + rhs.levels, self.pointers + rhs.pointers,
            self.prefixes + rhs.prefixes, self.other + rhs.other)


def _ndarray_bytes(array: Any) -> int:
    if isinstance(array, np.ndarray):
        return int(array.nbytes)
    if isinstance(array, (list, tuple)):
        # Object payloads: pointer-sized slots as a floor estimate.
        return 8 * len(array)
    return 0


def _levels_breakdown(tree_levels) -> StructureSizeBreakdown:
    levels = sum(_ndarray_bytes(keys) for keys in tree_levels.keys)
    if tree_levels.top is not None:
        levels += _ndarray_bytes(tree_levels.top.table)
    pointers = sum(_ndarray_bytes(bridge) for bridge
                   in tree_levels.anchors + tree_levels.bridges)
    prefixes = sum(_ndarray_bytes(prefix)
                   for prefix in tree_levels.agg_prefix)
    return StructureSizeBreakdown(levels=levels, pointers=pointers,
                                  prefixes=prefixes)


def structure_breakdown(structure: Any) -> StructureSizeBreakdown:
    """Component-wise byte accounting for any cacheable index structure.

    Dispatches on type: merge sort trees, segment trees, both DENSE_RANK
    layouts (presence table and range tree), the DISTINCT presence table
    (words as levels, class sums as prefixes), the range-mode index, a
    group's sort and per-row key arrays all get exact array sums;
    unknown objects fall back to a ``sys.getsizeof`` floor.
    """
    from repro.mst.tree import MergeSortTree
    from repro.rangemode.index import RangeModeIndex
    from repro.rangetree.dense import (DistinctTable, PresenceTable,
                                       RangeTree)
    from repro.segtree.tree import SegmentTree
    from repro.window.partition import GroupOrder

    if isinstance(structure, np.ndarray):  # per-row keys
        return StructureSizeBreakdown(other=int(structure.nbytes))
    if isinstance(structure, GroupOrder):
        return StructureSizeBreakdown(other=sum(
            _ndarray_bytes(ids) for ids in structure))
    if isinstance(structure, MergeSortTree):
        return _levels_breakdown(structure.levels)
    if isinstance(structure, PresenceTable):
        return StructureSizeBreakdown(levels=sum(
            _ndarray_bytes(a) for a in (structure.prev, structure.words)))
    if isinstance(structure, DistinctTable):
        return StructureSizeBreakdown(
            levels=_ndarray_bytes(structure.words),
            prefixes=_ndarray_bytes(structure.sums))
    if isinstance(structure, RangeTree):
        out = StructureSizeBreakdown(levels=sum(
            _ndarray_bytes(keys) for keys in (
                structure.prev, structure.key_counts.table,
                structure.prev_counts.table)))
        for tree in structure.trees():
            out = out + _levels_breakdown(tree)
        return out
    if isinstance(structure, SegmentTree):
        return StructureSizeBreakdown(
            levels=sum(_ndarray_bytes(level) for level in structure.levels))
    if isinstance(structure, RangeModeIndex):
        other = _ndarray_bytes(structure._ids)
        other += sum(8 * len(p) for p in structure._positions)
        other += sum(16 * len(row) for row in structure._span_mode)
        return StructureSizeBreakdown(other=other)
    return StructureSizeBreakdown(other=int(sys.getsizeof(structure)))


def structure_bytes(structure: Any) -> int:
    """Total measured bytes of one index structure."""
    return structure_breakdown(structure).total

