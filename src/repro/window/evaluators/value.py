"""Framed value functions: FIRST_VALUE, LAST_VALUE, NTH_VALUE
(Section 4.5).

Value functions are the k-th-qualifying selects of the percentile
machinery with fixed k: 0 for FIRST_VALUE, size-1 for LAST_VALUE, n-1
(or size-n with FROM LAST) for NTH_VALUE. The function-level ORDER BY
defaults to the frame order, which recovers the classic SQL semantics;
IGNORE NULLS drops NULL argument rows before the tree is built. In
frame order the kept permutation is the identity, and the select is
arithmetic on the frame's pieces with no tree
(:meth:`~repro.window.evaluators.common.CallInput.frame_select`).
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.baselines.naive import naive_kth
from repro.errors import WindowFunctionError
from repro.mst.tree import MergeSortTree
from repro.sortutil import normalized_key
from repro.window.bounds import frame_sizes
from repro.window.calls import WindowCall
from repro.window.evaluators.common import CallInput, Result
from repro.window.partition import PartitionView

_TREE_FANOUT = 2


def _ks_for(call: WindowCall, sizes: np.ndarray) -> np.ndarray:
    """Per-row 0-based select index; may be out of range (-> NULL)."""
    if call.function == "first_value":
        return np.zeros(len(sizes), dtype=np.int64)
    if call.function == "last_value":
        return sizes - 1
    if call.function == "nth_value":
        if call.from_last:
            return sizes - call.nth
        return np.full(len(sizes), call.nth - 1, dtype=np.int64)
    raise WindowFunctionError(f"unsupported value function {call.function!r}")


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    inputs = CallInput(call, part, skip_null_arg=call.ignore_nulls)
    counts = frame_sizes(inputs.pieces_f)
    ks = _ks_for(call, counts)
    if call.algorithm == "naive":
        return _evaluate_naive(call, part, inputs, ks)

    values, validity = inputs.argument()
    idx = np.flatnonzero((ks >= 0) & (ks < counts))
    if inputs.in_frame_order():
        # The kept permutation is the identity: no tree.
        at = inputs.frame_select(ks[idx], idx)
    else:
        tree = inputs.structure(
            "mst:perm",
            lambda: MergeSortTree(
                inputs.kept_permutation(inputs.function_sort_columns()),
                fanout=_TREE_FANOUT),
            extra=inputs.function_order_signature())
        at = inputs.select(tree.levels, ks[idx], idx)
    out = np.zeros(len(part.rows), dtype=values.dtype)
    valid = np.zeros(len(part.rows), dtype=np.bool_)
    out[idx] = values[at]
    valid[idx] = validity[at]
    return out, valid


def _evaluate_naive(call: WindowCall, part: PartitionView,
                    inputs: CallInput, ks: np.ndarray) -> List[Any]:
    values, validity = part.column(call.args[0])
    result_values = [values[i] if validity[i] else None
                     for i in range(part.n)]
    # Rows compare by normalised key, ties by frame position.
    order_keys = normalized_key(inputs.function_sort_columns(),
                                part.n).tolist()
    return naive_kth(order_keys, result_values, inputs.keep, part.pieces,
                     [int(k) for k in ks])
