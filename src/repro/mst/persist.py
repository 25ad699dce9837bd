"""Spooling merge sort trees to disk (Section 5.1: "If necessary, they
could also be spooled to disk").

The tree is a handful of contiguous integer arrays per level, so the
on-disk format is a single compressed ``.npz`` bundle plus a small
header of build parameters. Loading restores a fully functional
:class:`~repro.mst.tree.MergeSortTree` (aggregate annotations are
persisted when they are numpy arrays; generic object-state annotations
are not spoolable and are rejected at save time).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.mst.build import TreeLevels
from repro.mst.tree import MergeSortTree

#: Version 2: per-position bridges (``anchors_*`` + ``bridge_*``).
_FORMAT_VERSION = 2


def save_tree(tree: MergeSortTree, path: Union[str, Path]) -> None:
    """Serialise a tree to ``path`` (``.npz``)."""
    # The fourth meta field says the bundle carries its bridges; every
    # tree does, and load_tree refuses a bundle without them.
    arrays = {
        "__meta__": np.array([_FORMAT_VERSION, tree.fanout,
                              tree.sample_every, 1,
                              tree.levels.height], dtype=np.int64),
    }
    for level, keys in enumerate(tree.levels.keys):
        arrays[f"keys_{level}"] = keys
    for level in range(1, tree.levels.height):
        arrays[f"anchors_{level}"] = tree.levels.anchors[level]
        arrays[f"bridge_{level}"] = tree.levels.bridges[level]
    for level, prefix in enumerate(tree.levels.agg_prefix):
        if prefix.dtype == object:
            raise ValueError(
                "trees with generic (object-state) aggregate annotations "
                "cannot be spooled to disk")
        arrays[f"agg_{level}"] = prefix
    np.savez_compressed(path, **arrays)


def load_tree(path: Union[str, Path]) -> MergeSortTree:
    """Restore a tree saved by :func:`save_tree`.

    The returned tree supports :meth:`~repro.mst.tree.MergeSortTree.count`
    and :meth:`~repro.mst.tree.MergeSortTree.select`;
    :meth:`~repro.mst.tree.MergeSortTree.aggregate` additionally needs the
    tree to have been saved with numpy aggregate annotations, and the
    caller must re-attach the matching
    :class:`~repro.mst.aggregates.AggregateSpec` via ``aggregate_spec``.
    """
    with np.load(path) as bundle:
        meta = bundle["__meta__"]
        version, fanout, sample_every, cascading, height = \
            (int(v) for v in meta)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported tree format version {version}")
        if not cascading:
            raise ValueError("tree bundle has no cascading bridges")
        levels = TreeLevels(fanout=fanout, sample_every=sample_every)
        for level in range(height):
            levels.keys.append(bundle[f"keys_{level}"])
            for name, arrays in (("anchors", levels.anchors),
                                 ("bridge", levels.bridges)):
                name = f"{name}_{level}"
                arrays.append(bundle[name] if name in bundle else None)
            agg_name = f"agg_{level}"
            if agg_name in bundle:
                levels.agg_prefix.append(bundle[agg_name])
    tree = MergeSortTree.__new__(MergeSortTree)
    tree.levels = levels
    tree.fanout = fanout
    tree.sample_every = sample_every
    tree.aggregate_spec = None
    return tree
