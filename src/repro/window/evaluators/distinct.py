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
"""

from __future__ import annotations

from typing import Any, List, Optional

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


def _build_tree(inputs: CallInput, aggregate: AggregateSpec = None,
                payload: Any = None, cache_kind: str = None) -> MergeSortTree:
    """Tree over shifted previous-occurrence indices of the kept values.

    Keys are ``prev + 1`` so the "-" sentinel becomes 0 (the Section 5.1
    packing); a frame threshold ``prev < lo`` becomes ``key < lo + 1``.

    ``cache_kind`` names the structure in the cache key; None bypasses
    the cache (UDAF trees carry non-reusable aggregate specs).
    """

    def build() -> MergeSortTree:
        values = inputs.kept_values(inputs.call.args[0]) if inputs.call.args \
            else np.zeros(inputs.n_kept, dtype=np.int64)
        if isinstance(values, np.ndarray):
            prev = previous_occurrence(values)
        else:
            # Non-integer payloads (strings, ...) use the Section 6.7
            # hash-sorting formulation of Algorithm 1.
            prev = previous_occurrence_by_hash(values)
        return MergeSortTree(prev + 1, fanout=_TREE_FANOUT,
                             aggregate=aggregate, payload=payload)

    if cache_kind is None:
        return build()
    return inputs.structure(cache_kind, build)


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
    tree = _build_tree(inputs, cache_kind="mst:distinct")
    counts = _probe_distinct(tree, inputs)
    _subtract_hole_only(tree, inputs, counts)
    return counts, None


def _sum_avg_distinct(call: WindowCall, inputs: CallInput) -> Arrays:
    payload = np.asarray(inputs.kept_values(call.args[0]), dtype=np.float64)
    finite = np.isfinite(payload)
    # NaN and ±inf enter the sums as 0.0 — a hole correction could not
    # subtract them back out — and are applied per frame at the end.
    summed = payload if finite.all() else np.where(finite, payload, 0.0)
    tree = _build_tree(inputs, aggregate=SUM, payload=summed,
                       cache_kind="mst:distinct:sum")
    sums = batched_aggregate(
        tree.levels, inputs.start_f, inputs.end_f,
        key_hi=inputs.start_f + 1, kind="sum")
    counts = _probe_distinct(tree, inputs)
    _subtract_hole_only(tree, inputs, counts, sums, summed)
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
    values = inputs.kept_values(call.args[0])
    tree = _build_tree(inputs, aggregate=spec, payload=values)
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

