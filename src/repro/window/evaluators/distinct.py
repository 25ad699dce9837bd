"""Framed DISTINCT aggregates via merge sort trees (Sections 4.2 / 4.3).

``COUNT(DISTINCT x) OVER (...)`` is a pure range-count on the
previous-occurrence index array (Figure 1); ``SUM``/``AVG`` additionally
read prefix aggregate annotations; ``MIN``/``MAX`` are unaffected by
DISTINCT and delegate to the plain aggregate evaluator.

Frames with EXCLUDE holes need care (Section 4.7): previous-occurrence
pointers can chain *through* a hole, so per-piece threshold counting
would overcount. We instead count over the full continuous frame and
subtract the values that occur *only* inside the holes — one array pass
over every row's gaps between frame pieces
(:meth:`~repro.window.evaluators.common.CallInput.hole_only`).

``SUM``/``AVG`` over an integer argument with at most ``WORD_BITS``
classes among the kept values, whose absolute values sum to at most
``EXACT_SUM`` (2^53), take a :class:`~repro.rangetree.dense.DistinctTable`
instead: a frame's class set is one word, the OR over its pieces, so
EXCLUDE needs no correction there, and the tree's float sums would be
exact integers, the same numbers as the table's int64 sums.
``COUNT(DISTINCT)`` always takes the tree, which is the smaller of the
two.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.naive import (
    naive_distinct_aggregate,
    naive_distinct_count,
)
from repro.errors import WindowFunctionError
from repro.mst.aggregates import SUM, AggregateSpec
from repro.mst.tree import MergeSortTree
from repro.mst.vectorized import batched_aggregate, batched_count
from repro.preprocess.occurrences import (
    previous_occurrence,
    previous_occurrence_by_hash,
)
from repro.rangetree.dense import EXACT_SUM, WORD_BITS, DistinctTable
from repro.window.calls import WindowCall
from repro.window.evaluators import aggregates as plain_aggregates
from repro.window.evaluators.common import (Arrays, CallInput, Result,
                                             annotate_probe, nullable,
                                             python_values, result_dtype)
from repro.window.partition import PartitionView

_TREE_FANOUT = 2


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    name = call.function
    if name in ("min", "max"):
        # DISTINCT never changes MIN/MAX.
        return plain_aggregates.evaluate(call, part)
    inputs = CallInput(call, part, skip_null_arg=bool(call.args))
    annotate_probe(inputs)
    if call.algorithm == "naive":
        return _evaluate_naive(call, part, inputs)
    if name in ("count", "count_star"):
        return _count_distinct(call, inputs)
    if name in ("sum", "avg"):
        return _sum_avg_distinct(call, inputs)
    if name == "udaf":
        return _udaf_distinct(call, part, inputs)
    raise WindowFunctionError(f"unsupported distinct aggregate {name!r}")


def _kept_values(inputs: CallInput) -> Tuple[Any, np.ndarray]:
    """The kept argument values (zeros for ``count(*)``) and their
    previous occurrences."""
    values = inputs.kept_values(inputs.call.args[0]) if inputs.call.args \
        else np.zeros(inputs.n_kept, dtype=np.int64)
    if isinstance(values, np.ndarray):
        return values, previous_occurrence(values)
    # Non-integer payloads (strings, ...) use the Section 6.7
    # hash-sorting formulation of Algorithm 1.
    return values, previous_occurrence_by_hash(values)


def _class_table(values: Any, prev: np.ndarray) -> Optional[DistinctTable]:
    """A :class:`DistinctTable` over integer ``values`` with at most
    ``WORD_BITS`` classes whose absolute values sum to at most
    ``EXACT_SUM``; None when the tree must answer. ``prev < 0`` marks
    each class's first occurrence, so both bounds are checked before
    anything sorts ``values``."""
    if not isinstance(values, np.ndarray) or values.dtype.kind != "i":
        return None
    first = values[prev < 0]
    if len(first) > WORD_BITS \
            or sum(abs(v) for v in first.tolist()) > EXACT_SUM:
        return None
    classes, ids = np.unique(values, return_inverse=True)
    return DistinctTable(ids, classes)


def _build_tree(prev: np.ndarray, aggregate: AggregateSpec = None,
                payload: Any = None) -> MergeSortTree:
    """Tree over shifted previous-occurrence indices of the kept values.

    Keys are ``prev + 1`` so the "-" sentinel becomes 0 (the Section 5.1
    packing); a frame threshold ``prev < lo`` becomes ``key < lo + 1``.
    """
    return MergeSortTree(prev + 1, fanout=_TREE_FANOUT,
                         aggregate=aggregate, payload=payload)


def _subtract_hole_only(tree: MergeSortTree, inputs: CallInput,
                        counts: np.ndarray, sums: Optional[np.ndarray] = None,
                        payload: Optional[np.ndarray] = None) -> None:
    """The Section 4.7 correction, in place: previous-occurrence
    pointers chain through EXCLUDE holes, so the continuous-frame probe
    counted the classes that occur only inside a row's holes. Each row's
    hole-only values are summed in ascending position before the one
    subtraction."""
    prev = tree.levels.keys[0].astype(np.int64) - 1  # level 0 is prev + 1
    for rows, entries in inputs.hole_only(prev):
        counts -= np.bincount(rows, minlength=inputs.answered)
        if sums is not None:
            sums -= np.bincount(rows, weights=payload[entries],
                                minlength=inputs.answered)


def _probe_distinct(tree: MergeSortTree, inputs: CallInput) -> np.ndarray:
    """Distinct kept values per continuous frame ``[lo, hi)``: one
    batched count that descends only the upper frame end.

    Every entry ``j`` has ``prev[j] < j``, so each of the ``lo`` entries
    before the frame has its previous occurrence before ``lo`` too: the
    count over ``[0, hi)`` with ``prev < lo`` is the frame's count plus
    exactly ``lo``."""
    lo = np.clip(inputs.start_f, 0, inputs.n_kept)
    hi = np.maximum(np.minimum(inputs.end_f, inputs.n_kept), lo)
    return batched_count(
        tree.levels, np.zeros(len(lo), dtype=np.int64), hi,
        key_hi=lo + 1).astype(np.int64) - lo


def _count_distinct(call: WindowCall, inputs: CallInput) -> Arrays:
    tree = inputs.structure("mst:distinct",
                            lambda: _build_tree(_kept_values(inputs)[1]))
    counts = _probe_distinct(tree, inputs)
    _subtract_hole_only(tree, inputs, counts)
    return counts, None


def _finite_payload(values: Any) -> Tuple[np.ndarray, np.ndarray]:
    """The argument as float64, and the same with NaN and ±inf as 0.0:
    a hole correction could not subtract them back out, so they are
    applied per frame at the end."""
    payload = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(payload)
    return payload, payload if finite.all() else np.where(finite, payload,
                                                          0.0)


def _sum_index(inputs: CallInput) -> Union[DistinctTable, MergeSortTree]:
    """The call's cached DISTINCT sum index: the :class:`DistinctTable`
    when :func:`_class_table` admits the kept values, else the merge
    sort tree of :func:`_build_tree` annotated with their sum."""

    def build() -> Union[DistinctTable, MergeSortTree]:
        values, prev = _kept_values(inputs)
        table = _class_table(values, prev)
        if table is not None:
            return table
        return _build_tree(prev, aggregate=SUM,
                           payload=_finite_payload(values)[1])

    return inputs.structure("mst:distinct:sum", build)


def _sum_avg_distinct(call: WindowCall, inputs: CallInput) -> Arrays:
    index = _sum_index(inputs)
    if isinstance(index, DistinctTable):
        counts, sums = index.count_and_sum(inputs.pieces_f)
    else:
        payload, summed = _finite_payload(
            inputs.kept_values(call.args[0]))
        sums = batched_aggregate(
            index.levels, inputs.start_f, inputs.end_f,
            key_hi=inputs.start_f + 1, kind="sum")
        counts = _probe_distinct(index, inputs)
        _subtract_hole_only(index, inputs, counts, sums, summed)
        if summed is not payload:
            _apply_non_finite(inputs, payload, sums)
    valid = counts > 0
    if call.function == "avg":
        return nullable(sums / np.maximum(counts, 1), valid)
    return nullable(sums.astype(result_dtype(call, inputs.part)), valid)


def _apply_non_finite(inputs: CallInput, payload: np.ndarray,
                      sums: np.ndarray) -> None:
    """Set, in place, the sum of every frame holding NaN or ±inf."""

    def occurs(hit: np.ndarray) -> np.ndarray:
        positions = np.flatnonzero(hit)
        found = np.zeros(inputs.answered, dtype=np.bool_)
        for lo, hi in inputs.pieces_f:
            found |= (np.searchsorted(positions, lo)
                      < np.searchsorted(positions, hi))
        return found

    pos, neg = occurs(payload == np.inf), occurs(payload == -np.inf)
    sums[pos] = np.inf
    sums[neg] = -np.inf
    sums[occurs(np.isnan(payload)) | (pos & neg)] = np.nan


def _udaf_distinct(call: WindowCall, part: PartitionView,
                   inputs: CallInput) -> Arrays:
    spec: AggregateSpec = call.udaf
    if part.has_exclusion:
        # No inverse function may be assumed for a UDAF; recompute
        # excluded frames naively (documented fallback).
        return _evaluate_naive(call, part, inputs)
    values, prev = _kept_values(inputs)
    tree = _build_tree(prev, aggregate=spec, payload=values)
    valid = _probe_distinct(tree, inputs) > 0
    states = batched_aggregate(tree.levels, inputs.start_f[valid],
                               inputs.end_f[valid],
                               inputs.start_f[valid] + 1, spec)
    out = np.zeros(len(part.rows), dtype=object)
    out[valid] = np.fromiter((spec.finalize(state) for state in states),
                             dtype=object, count=len(states))
    return nullable(out, valid)


def _evaluate_naive(call: WindowCall, part: PartitionView,
                    inputs: CallInput) -> List[Any]:
    values = python_values(part.column(call.args[0])[0]) if call.args \
        else list(range(part.n))
    if call.function in ("count", "count_star"):
        return naive_distinct_count(values, inputs.keep, part.pieces)
    if call.function == "sum":
        return naive_distinct_aggregate(values, inputs.keep, part.pieces,
                                        sum)
    if call.function == "avg":
        return naive_distinct_aggregate(
            values, inputs.keep, part.pieces,
            lambda vs: float(sum(float(v) for v in vs)) / len(vs))
    if call.function == "udaf":
        spec = call.udaf

        def fold(vs: List[Any]) -> Any:
            state = spec.identity
            for v in vs:
                state = spec.merge(state, spec.lift(v))
            return spec.finalize(state)

        return naive_distinct_aggregate(values, inputs.keep, part.pieces,
                                        fold)
    raise WindowFunctionError(
        f"unsupported distinct aggregate {call.function!r}")

