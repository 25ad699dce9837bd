"""Framed LEAD and LAG with an independent ORDER BY (Section 4.6).

Evaluation follows the paper's four steps:

1. the current row's 0-based position among the frame's kept rows in
   function order — a slab-prefix range count on the permutation tree;
2. add (LEAD) or subtract (LAG) the offset;
3. find the row at the adjusted position — a select query;
4. evaluate the argument expression on that row (or the default).
"""

from __future__ import annotations

import datetime
from typing import Any, List

import numpy as np

from repro.baselines.naive import frame_rows
from repro.errors import WindowFunctionError
from repro.mst.tree import MergeSortTree
from repro.sortutil import stable_argsort
from repro.table.column import date_to_ordinal
from repro.window.bounds import frame_sizes
from repro.window.calls import WindowCall
from repro.window.evaluators.common import CallInput, Result, result_dtype
from repro.window.evaluators.value import _composite_keys
from repro.window.partition import PartitionView
from repro.resilience.context import current_context

_TREE_FANOUT = 2


def _default(call: WindowCall) -> Any:
    """The call's default in its column representation (a date as its
    day ordinal)."""
    if isinstance(call.default, datetime.date):
        return date_to_ordinal(call.default)
    return call.default


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    inputs = CallInput(call, part, skip_null_arg=call.ignore_nulls)
    if call.algorithm == "naive":
        return _evaluate_naive(call, part, inputs)
    if call.algorithm != "mst":
        raise WindowFunctionError(
            f"algorithm {call.algorithm!r} does not support LEAD/LAG")

    sort_columns = inputs.function_sort_columns()
    tree = inputs.structure(
        "mst:perm",
        lambda: MergeSortTree(inputs.kept_permutation(sort_columns),
                              fanout=_TREE_FANOUT),
        extra=inputs.function_order_signature())

    # Step 1: the row's insertion position among kept rows in function
    # order. stable_argsort is stable, so restriction to kept rows keeps
    # relative order consistent with the kept permutation.
    full_order = stable_argsort(sort_columns, part.n)
    fn_position = np.empty(part.n, dtype=np.int64)
    fn_position[full_order] = np.arange(part.n, dtype=np.int64)
    kept_in_fn_order = inputs.keep[full_order]
    kept_prefix = np.zeros(part.n + 1, dtype=np.int64)
    np.cumsum(kept_in_fn_order, out=kept_prefix[1:])
    own_slab = kept_prefix[fn_position]  # kept rows sorting strictly before

    rank0 = np.zeros(part.n, dtype=np.int64)
    for lo, hi in inputs.pieces_f:
        rank0 += part.probes.count(tree.levels,
                                   np.zeros(part.n, dtype=np.int64),
                                   own_slab, key_hi=hi, key_lo=lo)

    # Step 2: apply the offset.
    signed = call.offset if call.function == "lead" else -call.offset
    targets = rank0 + signed
    counts = frame_sizes(inputs.pieces_f)
    idx = np.flatnonzero((targets >= 0) & (targets < counts))

    # Steps 3 + 4: select and read the argument (or the default).
    values, validity = inputs.argument()
    at = inputs.select(tree.levels, targets[idx], idx)
    default = _default(call)
    out = np.full(part.n, 0 if default is None else default,
                  dtype=result_dtype(call, part))
    valid = np.full(part.n, default is not None, dtype=np.bool_)
    out[idx] = values[at]
    valid[idx] = validity[at]
    return out, valid


def _evaluate_naive(call: WindowCall, part: PartitionView,
                    inputs: CallInput) -> List[Any]:
    values, validity = part.column(call.args[0])
    sort_columns = inputs.function_sort_columns()
    if sort_columns:
        order_keys = _composite_keys(sort_columns, part.n)
    else:
        order_keys = list(range(part.n))
    keep = inputs.keep
    signed = call.offset if call.function == "lead" else -call.offset
    out: List[Any] = []
    ctx = current_context()
    for i in range(part.n):
        ctx.tick(i)
        rows = [j for j in frame_rows(part.pieces, i) if keep[j]]
        rows.sort(key=lambda j: (order_keys[j], j))
        before = sum(1 for j in rows
                     if order_keys[j] < order_keys[i]
                     or (not order_keys[j] < order_keys[i]
                         and not order_keys[i] < order_keys[j] and j < i))
        target = before + signed
        if 0 <= target < len(rows):
            j = rows[target]
            out.append(values[j] if validity[j] else None)
        else:
            out.append(_default(call))
    return out
