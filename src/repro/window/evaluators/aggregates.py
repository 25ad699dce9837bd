"""Plain (non-DISTINCT) framed aggregates: COUNT, SUM, AVG, MIN, MAX.

These are the distributive/algebraic aggregates the SQL standard already
allows in frames; the engine evaluates them with segment trees exactly as
Leis et al. [27] describe (and as the paper's window operator does for
its non-holistic cases). They are needed both for completeness of the
window operator and as infrastructure for the benchmarks.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.baselines.naive import frame_rows
from repro.errors import WindowFunctionError
from repro.mst.aggregates import AggregateSpec
from repro.segtree.tree import SegmentTree
from repro.window.bounds import frame_sizes, row_ranges
from repro.window.calls import WindowCall
from repro.window.evaluators.common import (Arrays, CallInput, Result,
                                             annotate_probe, nullable,
                                             python_values, result_dtype)
from repro.window.partition import PartitionView
from repro.resilience.context import current_context


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    name = call.function
    skip_nulls = name not in ("count_star",)
    inputs = CallInput(call, part, skip_null_arg=skip_nulls and bool(call.args))
    annotate_probe(inputs)
    if call.algorithm == "naive":
        return _evaluate_naive(call, part, inputs)
    counts = frame_sizes(inputs.pieces_f)
    if name in ("count", "count_star"):
        return counts, None
    if name == "udaf":
        return _evaluate_udaf(call, inputs, counts)

    values = np.asarray(inputs.kept_values(call.args[0]), dtype=np.float64)
    valid = counts > 0
    if name in ("sum", "avg"):
        tree = inputs.structure("segtree:sum",
                                lambda: SegmentTree(values, kind="sum"))
        result = _combine_pieces(tree, inputs, np.add, 0.0)
        if name == "avg":
            return nullable(result / np.maximum(counts, 1), valid)
    elif name in ("min", "max"):
        tree = inputs.structure(f"segtree:{name}",
                                lambda: SegmentTree(values, kind=name))
        op = np.minimum if name == "min" else np.maximum
        identity = np.inf if name == "min" else -np.inf
        # Empty frames keep the identity; zero it before the cast.
        result = np.where(
            valid, _combine_pieces(tree, inputs, op, identity), 0.0)
    else:
        raise WindowFunctionError(f"unsupported aggregate {name!r}")
    return nullable(result.astype(result_dtype(call, part)), valid)


def _combine_pieces(tree: SegmentTree, inputs: CallInput, op, identity):
    total = np.full(inputs.answered, identity, dtype=np.float64)
    for lo, hi in inputs.pieces_f:
        total = op(total, tree.batched_query(lo, hi))
    return total


def _evaluate_udaf(call: WindowCall, inputs: CallInput,
                   counts: np.ndarray) -> Arrays:
    spec: AggregateSpec = call.udaf
    values = inputs.kept_values(call.args[0])
    lifted = SegmentTree([spec.lift(v) for v in values], merge=spec.merge,
                         identity=spec.identity)
    out = np.zeros(inputs.answered, dtype=object)
    valid = counts > 0
    ctx = current_context()
    for i in np.flatnonzero(valid):
        ctx.tick(i)
        state = spec.identity
        for lo, hi in row_ranges(inputs.pieces_f, i):
            state = spec.merge(state, lifted.query(lo, hi))
        out[i] = spec.finalize(state)
    return nullable(out, valid)


def _evaluate_naive(call: WindowCall, part: PartitionView,
                    inputs: CallInput) -> List[Any]:
    name = call.function
    keep = inputs.keep
    if name == "count_star" or name == "count":
        return [sum(1 for j in frame_rows(part.pieces, i) if keep[j])
                for i in range(len(part.rows))]
    values = python_values(part.column(call.args[0])[0])
    out: List[Any] = []
    ctx = current_context()
    for i in range(len(part.rows)):
        ctx.tick(i)
        frame = [values[j] for j in frame_rows(part.pieces, i) if keep[j]]
        if not frame:
            out.append(None)
        elif name == "sum":
            out.append(sum(frame))
        elif name == "avg":
            out.append(float(sum(frame)) / len(frame))
        elif name == "min":
            out.append(min(frame))
        elif name == "max":
            out.append(max(frame))
        elif name == "udaf":
            spec = call.udaf
            state = spec.identity
            for v in frame:
                state = spec.merge(state, spec.lift(v))
            out.append(spec.finalize(state))
        else:
            raise WindowFunctionError(f"unsupported aggregate {name!r}")
    return out
