"""Framed LEAD and LAG with an independent ORDER BY (Section 4.6).

Evaluation follows the paper's four steps:

1. the current row's 0-based position among the frame's kept rows in
   function order — a slab-prefix range count on the permutation tree;
2. add (LEAD) or subtract (LAG) the offset;
3. find the row at the adjusted position — a select query;
4. evaluate the argument expression on that row (or the default).

When the function order is the window order the permutation is the
identity: steps 1 and 3 are then arithmetic on the frame's pieces, and
no tree is built.
"""

from __future__ import annotations

import datetime
from typing import Any, List, Tuple

import numpy as np

from repro.baselines.naive import frame_rows
from repro.mst.tree import MergeSortTree
from repro.mst.vectorized import batched_count
from repro.preprocess.permutation import inverse_permutation
from repro.sortutil import SortColumn, normalized_key, stable_argsort
from repro.table.column import date_to_ordinal
from repro.window.bounds import frame_sizes
from repro.window.calls import WindowCall
from repro.window.evaluators.common import CallInput, Result, result_dtype
from repro.window.partition import PartitionView
from repro.resilience.context import current_context

_TREE_FANOUT = 2


def _default(call: WindowCall) -> Any:
    """The call's default in its column representation (a date as its
    day ordinal)."""
    if isinstance(call.default, datetime.date):
        return date_to_ordinal(call.default)
    return call.default


def _function_positions(inputs: CallInput, tree: MergeSortTree,
                        sort_columns: List[SortColumn]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Per answered row: the kept rows sorting strictly before it in
    function order (stable, so ties go by group position) — its slab
    position in the tree. And the answered rows in that order, the
    order whose descents walk the tree's paths left to right."""
    rows = inputs.part.rows
    perm = tree.levels.keys[0]
    if inputs.keep.all():
        # Every row is kept: that is the row's place in the kept
        # permutation the tree was built from, and when every row is
        # answered the permutation itself lists them in that order.
        own_slab = inverse_permutation(perm)[rows]
        if len(rows) == inputs.part.n:
            return own_slab, perm.astype(np.int64)
    else:
        n = inputs.part.n
        full_order = stable_argsort(sort_columns, n)
        kept_prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(inputs.keep[full_order], out=kept_prefix[1:])
        own_slab = kept_prefix[inverse_permutation(full_order)[rows]]
    return own_slab, np.argsort(own_slab, kind="stable")


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    inputs = CallInput(call, part, skip_null_arg=call.ignore_nulls)
    if call.algorithm == "naive":
        return _evaluate_naive(call, part, inputs)

    in_frame_order = inputs.in_frame_order()
    # The answered rows in the order their probes run; None: as they are.
    order = None
    if in_frame_order:
        # Function order is frame order, so the kept permutation is the
        # identity and both probes reduce to arithmetic on the pieces:
        # the kept rows before row i are exactly those at filtered
        # positions below its own.
        own = inputs.remap.bounds_array_to_filtered(part.rows)
        rank0 = sum(np.maximum(np.minimum(own, hi) - lo, 0)
                    for lo, hi in inputs.pieces_f)
    else:
        sort_columns = inputs.function_sort_columns()
        tree = inputs.structure(
            "mst:perm",
            lambda: MergeSortTree(inputs.kept_permutation(sort_columns),
                                  fanout=_TREE_FANOUT),
            extra=inputs.function_order_signature())
        # Step 1: the row's insertion position among kept rows in
        # function order, a slab-prefix count on the permutation tree.
        # The rows probe in slab order, so consecutive descents share
        # their paths and every level's gathers stay local.
        own_slab, order = _function_positions(inputs, tree, sort_columns)
        own_slab = own_slab[order]
        zeros = np.zeros(len(order), dtype=np.int64)
        rank0 = np.zeros(len(order), dtype=np.int64)
        for lo, hi in inputs.pieces_f:
            rank0 += batched_count(tree.levels, zeros, own_slab,
                                   key_hi=hi[order], key_lo=lo[order])

    # Step 2: apply the offset.
    signed = call.offset if call.function == "lead" else -call.offset
    targets = rank0 + signed
    counts = frame_sizes(inputs.pieces_f)
    if order is not None:
        counts = counts[order]
    found = np.flatnonzero((targets >= 0) & (targets < counts))
    idx = found if order is None else order[found]

    # Steps 3 + 4: select and read the argument (or the default).
    values, validity = inputs.argument()
    if in_frame_order:
        at = inputs.frame_select(targets[found], idx)
    else:
        at = inputs.select(tree.levels, targets[found], idx)
    default = _default(call)
    out = np.full(len(part.rows), 0 if default is None else default,
                  dtype=result_dtype(call, part))
    valid = np.full(len(part.rows), default is not None, dtype=np.bool_)
    out[idx] = values[at]
    valid[idx] = validity[at]
    return out, valid


def _evaluate_naive(call: WindowCall, part: PartitionView,
                    inputs: CallInput) -> List[Any]:
    values, validity = part.column(call.args[0])
    order_keys = normalized_key(inputs.function_sort_columns(),
                                part.n).tolist()
    keep = inputs.keep
    signed = call.offset if call.function == "lead" else -call.offset
    out: List[Any] = []
    ctx = current_context()
    for i, row in enumerate(part.rows):
        ctx.tick(i)
        rows = [j for j in frame_rows(part.pieces, i) if keep[j]]
        rows.sort(key=lambda j: (order_keys[j], j))
        before = sum(1 for j in rows
                     if order_keys[j] < order_keys[row]
                     or (not order_keys[j] < order_keys[row]
                         and not order_keys[row] < order_keys[j]
                         and j < row))
        target = before + signed
        if 0 <= target < len(rows):
            j = rows[target]
            out.append(values[j] if validity[j] else None)
        else:
            out.append(_default(call))
    return out
