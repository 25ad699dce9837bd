"""Framed rank functions via merge sort trees (Section 4.4).

The rank of a row is the number of frame rows comparing strictly smaller
under the function-level ORDER BY, plus one — a range count over the
dense integer rank keys of Figure 8. ROW_NUMBER disambiguates ties by
frame position; PERCENT_RANK and CUME_DIST are scaled variants; NTILE
derives from ROW_NUMBER and the frame size; DENSE_RANK counts distinct
key classes, on a presence table over at most 64 classes and on the
Section 4.4 range tree over more.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.baselines.naive import naive_dense_rank, naive_rank
from repro.errors import WindowFunctionError
from repro.mst.tree import MergeSortTree
from repro.mst.vectorized import batched_count
from repro.preprocess.rankkeys import dense_rank_keys, row_number_keys
from repro.rangetree.dense import DenseRankIndex
from repro.window.bounds import frame_sizes
from repro.window.calls import WindowCall
from repro.window.evaluators.common import (Arrays, CallInput, Result,
                                             annotate_probe, nullable)
from repro.window.partition import PartitionView

_TREE_FANOUT = 2


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    inputs = CallInput(call, part, skip_null_arg=False)
    annotate_probe(inputs)
    name = call.function
    unique_keys = name in ("row_number", "ntile")
    sort_columns = inputs.function_sort_columns()
    rank_keys = row_number_keys if unique_keys else dense_rank_keys

    if call.algorithm == "naive":
        return _evaluate_naive(name, call, part, inputs,
                               rank_keys(sort_columns, part.n))

    # The keys are a structure of the group like the trees over them:
    # a warm query skips the function-order sort.
    keys = inputs.structure(
        "rankkeys", lambda: rank_keys(sort_columns, part.n),
        extra=(unique_keys,) + inputs.function_order_signature())

    if name == "dense_rank":
        return _dense_rank(inputs, keys)

    tree = inputs.structure(
        "mst:rankkeys",
        lambda: MergeSortTree(keys[inputs.kept_rows], fanout=_TREE_FANOUT),
        extra=(unique_keys,) + inputs.function_order_signature())
    own = keys[part.rows]  # the answered rows' own keys

    def count_below(threshold: np.ndarray) -> np.ndarray:
        total = np.zeros(len(own), dtype=np.int64)
        for lo, hi in inputs.pieces_f:
            total += batched_count(tree.levels, lo, hi, key_hi=threshold)
        return total

    if name in ("rank", "row_number"):
        return count_below(own) + 1, None
    sizes = frame_sizes(inputs.pieces_f)
    if name == "percent_rank":
        return np.where(sizes <= 1, 0.0,
                        count_below(own) / np.maximum(sizes - 1, 1)), None
    if name == "cume_dist":
        return nullable(count_below(own + 1) / np.maximum(sizes, 1),
                        sizes > 0)
    if name == "ntile":
        row_numbers = count_below(own)  # 0-based
        # More buckets than frame rows puts one row in each: clamp
        # before multiplying so ``row * buckets`` cannot wrap.
        buckets = np.minimum(call.buckets, sizes)
        return nullable(
            (row_numbers * buckets) // np.maximum(sizes, 1) + 1,
            sizes > 0)
    raise WindowFunctionError(f"unsupported rank function {name!r}")


def _dense_rank(inputs: CallInput, keys: np.ndarray) -> Arrays:
    index = inputs.structure(
        "rangetree:dense",
        lambda: DenseRankIndex(keys[inputs.kept_rows]),
        extra=inputs.function_order_signature())
    own = keys[inputs.part.rows]
    ranks = index.batched_dense_rank(inputs.start_f, inputs.end_f, own)
    # Section 4.7: a smaller key class whose every frame occurrence sits
    # in an EXCLUDE hole was counted above. ``index.prev`` holds the
    # kept keys' previous occurrences.
    for rows, _ in inputs.hole_only(
            index.prev,
            admit=lambda rows, entries:
            keys[inputs.kept_rows[entries]] < own[rows]):
        ranks -= np.bincount(rows, minlength=inputs.answered)
    return ranks, None


def _evaluate_naive(name: str, call: WindowCall, part: PartitionView,
                    inputs: CallInput, keys: np.ndarray) -> List[Any]:
    rows = part.rows
    if name == "dense_rank":
        return naive_dense_rank(keys, inputs.keep, part.pieces, rows)
    if name in ("rank", "row_number"):
        return naive_rank(keys, inputs.keep, part.pieces, "strict", rows)
    sizes = frame_sizes(inputs.pieces_f)
    if name == "percent_rank":
        ranks = naive_rank(keys, inputs.keep, part.pieces, "strict", rows)
        return [0.0 if sizes[i] <= 1 else float((ranks[i] - 1) / (sizes[i] - 1))
                for i in range(len(rows))]
    if name == "cume_dist":
        at_most = naive_rank(keys, inputs.keep, part.pieces, "at_most", rows)
        return [None if sizes[i] == 0 else float((at_most[i] - 1) / sizes[i])
                for i in range(len(rows))]
    if name == "ntile":
        ranks = naive_rank(keys, inputs.keep, part.pieces, "strict", rows)
        return [None if sizes[i] == 0
                else int(((ranks[i] - 1) * min(call.buckets, int(sizes[i])))
                         // sizes[i]) + 1
                for i in range(len(rows))]
    raise WindowFunctionError(f"unsupported rank function {name!r}")

