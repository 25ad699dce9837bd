"""Framed percentiles via merge sort trees over permutation arrays
(Section 4.5): PERCENTILE_DISC, PERCENTILE_CONT, MEDIAN.

The tree is built over the permutation array of the kept rows: slab
order is the function-level ORDER BY, keys are (filtered) frame
positions; the p-th percentile of a frame with ``s`` kept rows is the
``ceil(p*s)-1``-th (DISC) or the interpolated ``p*(s-1)``-th (CONT)
qualifying entry in slab order — a select query.
"""

from __future__ import annotations

import math
from typing import Any, List

import numpy as np

from repro.baselines.naive import (
    naive_percentile_cont,
    naive_percentile_disc,
)
from repro.mst.tree import MergeSortTree
from repro.window.bounds import frame_sizes
from repro.window.calls import WindowCall
from repro.window.evaluators.common import (Arrays, CallInput, Result,
                                             annotate_probe, nullable)
from repro.window.partition import PartitionView
from repro.resilience.context import current_context

_TREE_FANOUT = 2


def _fraction(call: WindowCall) -> float:
    return 0.5 if call.function == "median" else call.fraction


def _continuous(call: WindowCall) -> bool:
    return call.function in ("percentile_cont", "median")


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    inputs = CallInput(call, part, skip_null_arg=True)
    annotate_probe(inputs)
    fraction = _fraction(call)
    if call.algorithm == "naive":
        return _evaluate_naive(call, part, inputs, fraction)
    return _evaluate_mst(call, inputs, fraction)


def _evaluate_mst(call: WindowCall, inputs: CallInput,
                  fraction: float) -> Arrays:
    tree = inputs.structure(
        "mst:perm",
        lambda: MergeSortTree(
            inputs.kept_permutation(
                inputs.function_sort_columns(default_arg=True)),
            fanout=_TREE_FANOUT),
        extra=inputs.function_order_signature(default_arg=True))
    # The percentile returns values of its ORDER BY expression.
    values, _ = inputs.argument()
    counts = frame_sizes(inputs.pieces_f)
    valid = counts > 0
    idx = np.flatnonzero(valid)
    sizes = counts[idx]
    if _continuous(call):
        positions = fraction * (sizes - 1)
        lower = np.floor(positions).astype(np.int64)
        upper = np.ceil(positions).astype(np.int64)
        weight = positions - lower
        values = np.asarray(values, dtype=np.float64)
        out = np.zeros(inputs.answered, dtype=np.float64)
        out[idx] = (values[inputs.select(tree.levels, lower, idx)]
                    * (1 - weight)
                    + values[inputs.select(tree.levels, upper, idx)]
                    * weight)
    else:
        ks = np.maximum(np.ceil(fraction * sizes).astype(np.int64) - 1, 0)
        out = np.zeros(inputs.answered, dtype=values.dtype)
        out[idx] = values[inputs.select(tree.levels, ks, idx)]
    return nullable(out, valid)


def _evaluate_naive(call: WindowCall, part: PartitionView, inputs: CallInput,
                    fraction: float) -> List[Any]:
    values, _ = part.column(call.args[0])
    if (not _continuous(call) and inputs.single_piece
            and isinstance(values, np.ndarray)):
        # The engine's in-database naive path: recompute per frame,
        # but with a compiled (numpy) selection kernel — the analogue of
        # the paper's C++ naive implementation, as opposed to the
        # deliberately interpreted Tableau-style client calc.
        kept = np.asarray(inputs.kept_values(call.args[0]),
                          dtype=np.float64)
        integer_input = np.issubdtype(values.dtype, np.integer)
        lo, hi = inputs.pieces_f[0]
        out: List[Any] = []
        ctx = current_context()
        for i in range(len(part.rows)):
            ctx.tick(i)
            a, b = int(lo[i]), int(hi[i])
            if a >= b:
                out.append(None)
                continue
            k = max(math.ceil(fraction * (b - a)) - 1, 0)
            value = float(np.sort(kept[a:b])[k])
            out.append(int(value) if integer_input else value)
        return out
    if _continuous(call):
        return naive_percentile_cont(values, inputs.keep, part.pieces,
                                     fraction)
    return naive_percentile_disc(values, inputs.keep, part.pieces,
                                 fraction)

