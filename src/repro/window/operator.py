"""The window operator: partition, sort, frame, evaluate, scatter.

The classic structure from Leis et al. [27]: the input is sorted once by
(PARTITION BY, ORDER BY); frame bounds are resolved and every window
function is evaluated against shared index structures; results are
scattered back to the original row order as new columns.

A window group — the calls sharing one spec — is **one evaluation**,
however many partitions it has. After the sort every partition is a
contiguous run of the group's order and no frame crosses a partition
boundary, so bounds are resolved in group positions, clipped to each
row's partition (:func:`~repro.window.bounds.resolve_bounds`), and each
structure is built once over the whole group, under one cache key, and
answers every partition's frames with the same batched kernels.

A consumer that keeps only some rows passes a **row demand**
(``WindowOperator(..., rows=...)``: ascending input positions, e.g. the
first k under a LIMIT k). The group is still sorted, framed and built
whole — the trees span the group and RANGE / GROUPS / EXCLUDE frames
read neighbouring rows — but only the demanded group positions are
probed (:attr:`~repro.window.partition.PartitionView.rows`), and the
output holds the demanded rows alone. Without a demand every row is
demanded: there is one evaluation path. Answering k rows of a built
tree costs k probes (PAPER.md §1), so a LIMIT 100 over 20 000 rows
probes 100 frames, not 20 000.

A group runs on the query thread: each call's probes go straight to
the batched kernels of :mod:`repro.mst.vectorized`, and its values
scatter into precomputed output positions. Concurrency comes from the
gateway admitting several queries at once, not from inside a group.

The group's sort (:class:`~repro.window.partition.GroupOrder`) is the
first entry the group takes from the session's structure cache, keyed
by the content of its PARTITION BY / ORDER BY columns
(:func:`~repro.cache.fingerprint.window_group_key`); every structure
is keyed on that prefix plus the content of the columns it reads. A
warm repeat query skips the argsort, the run detection and every build.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FrameError
from repro.resilience.context import current_context
from repro.sortutil import SortColumn
from repro.table.column import Column, infer_dtype
from repro.table.schema import Field, Schema
from repro.table.table import Table
from repro.window.bounds import (
    PeerGroups,
    exclusion_ranges,
    resolve_bounds,
)
from repro.window.calls import WindowCall, result_type
from repro.window.evaluators import evaluate_call
from repro.window.evaluators.common import to_list
from repro.window.frame import (
    FrameBound,
    FrameMode,
    FrameSpec,
    WindowSpec,
)
from repro.window.partition import PartitionView, sort_group, view_columns


class WindowOperator:
    """Evaluates window function calls over a table.

    Calls sharing a :class:`WindowSpec` share partitioning, sorting and
    frame resolution (the reuse optimisation of Kohn et al. [24] /
    Cao et al. [11]).
    """

    def __init__(self, table: Table, cache: Any = None,
                 rows: Optional[Sequence[int]] = None) -> None:
        self.table = table
        self.cache = cache  # optional repro.cache.StructureCache
        #: The row demand: ascending, distinct input positions the
        #: consumer keeps (None = every row). Only these rows are
        #: answered, and they alone make up the output.
        self.rows = None if rows is None \
            else np.asarray(rows, dtype=np.int64)
        self._groups: List[Tuple[WindowSpec, List[WindowCall]]] = []

    def add(self, call: WindowCall, spec: WindowSpec) -> "WindowOperator":
        for existing_spec, calls in self._groups:
            if existing_spec == spec:
                calls.append(call)
                return self
        self._groups.append((spec, [call]))
        return self

    def run(self) -> Table:
        """Evaluate all calls; returns the input table — its demanded
        rows only, under a demand — with one appended column per call
        (in registration order)."""
        kept = self.table if self.rows is None \
            else self.table.take(self.rows)
        fields = list(kept.schema.fields)
        columns = list(kept.columns)
        for spec, calls in self._groups:
            results = _evaluate_group(self.table, spec, calls,
                                      cache=self.cache,
                                      demand=self.rows)
            for call, column in zip(calls, results):
                name = _unique_name(call.output_name,
                                    {field.name for field in fields})
                fields.append(Field(name, column.dtype))
                columns.append(column)
        return Table.from_columns(Schema(fields), columns,
                                  name=self.table.name)


def window_query(table: Table, calls: Sequence[WindowCall],
                 spec: WindowSpec, cache: Any = None) -> Table:
    """One-shot convenience: evaluate ``calls`` over one window spec."""
    operator = WindowOperator(table, cache=cache)
    for call in calls:
        operator.add(call, spec)
    return operator.run()


# ----------------------------------------------------------------------
# group evaluation
# ----------------------------------------------------------------------
def _evaluate_group(table: Table, spec: WindowSpec,
                    calls: Sequence[WindowCall],
                    cache: Any = None,
                    demand: Optional[np.ndarray] = None
                    ) -> List[Column]:
    n = table.num_rows
    ctx = current_context()
    tracer = ctx.tracer
    acquirer = None
    if cache is not None:
        from repro.cache.fingerprint import window_group_key
        from repro.cache.store import StructureAcquirer
        acquirer = StructureAcquirer(cache, window_group_key(table, spec),
                                     table)
    try:
        with tracer.span("partition", rows=n) as partition_span:
            # The group's sort is its first cache entry: a warm query
            # skips the argsort and the run detection.
            def build_sort() -> Any:
                ctx.telemetry.count_structure_build()
                return sort_group(table, spec)

            sort = build_sort() if acquirer is None else \
                acquirer.acquire("order", (), build_sort)
            # Stored narrow; widened once so every gather below indexes
            # with intp (numpy would convert an int32 index per gather).
            order = sort.order.astype(np.intp)
            partitions = min(n, 1) if sort.partition_ids is None or not n \
                else int(sort.partition_ids[-1]) + 1
            # targets[i]: the output position of the i-th answered group
            # position. Without a demand every row is answered, at its
            # own input position.
            answer, targets = None, order
            if demand is not None:
                slots = np.full(n, -1, dtype=np.int64)
                slots[demand] = np.arange(len(demand))
                slots = slots[order]
                answer = np.flatnonzero(slots >= 0)
                targets = slots[answer]
            partition_span.annotate(partitions=partitions)

        with tracer.span("window.group", partitions=partitions, rows=n,
                         calls=len(calls), answered=len(targets)):
            column_data = {name: _column_data(table, name)
                           for name in view_columns(spec, calls)
                           if name in table.schema}
            view = _build_view(column_data, order, spec,
                               sort.partition_ids, sort.peer_ids,
                               structures=acquirer, answer=answer)
            columns = [_scatter(table, call, targets,
                                *evaluate_call(call, view))
                       for call in calls]
    finally:
        # Cache pins are acquired under the store lock and released
        # here, so failure or cancellation never leaves a pin behind.
        if acquirer is not None:
            acquirer.release_all()
    return columns


def _scatter(table: Table, call: WindowCall, targets: np.ndarray,
             values: np.ndarray, validity: Optional[np.ndarray]) -> Column:
    """One call's output column: ``values`` (in answered order) stored
    at their output positions in a buffer of the call's static type,
    wrapped without boxing a value — except a UDAF's, whose type only
    its states can tell."""
    dtype = result_type(call, table.schema.field(call.args[0]).dtype
                        if call.args and call.args[0] in table.schema
                        else None)
    out = np.zeros(len(targets),
                   dtype=getattr(dtype, "numpy_dtype", None) or object)
    out[targets] = values
    valid = np.ones(len(targets), dtype=np.bool_)
    if validity is not None:
        valid[targets] = validity
    if dtype is None:
        boxed = to_list((out, valid))
        return Column(infer_dtype(boxed), boxed)
    return Column.from_numpy(dtype, out, valid)


# ----------------------------------------------------------------------
# the group view
# ----------------------------------------------------------------------
def _column_data(table: Table, name: str) -> Tuple[Any, np.ndarray]:
    column = table.column(name)
    return column.raw(), column.validity


def _gather(values: Any, rows: np.ndarray) -> Any:
    if isinstance(values, np.ndarray):
        return values[rows]
    return [values[i] for i in rows]


def _build_view(column_data: Dict[str, Tuple[Any, np.ndarray]],
                order: np.ndarray, spec: WindowSpec,
                partition_ids: Optional[np.ndarray],
                peer_ids: np.ndarray,
                structures: Any = None,
                answer: Optional[np.ndarray] = None) -> PartitionView:
    """The group — input rows in window ``order`` — as one view that
    answers the group positions ``answer`` (None = every row).

    ``column_data`` holds input-order columns, the window ORDER BY keys
    among them; ``partition_ids`` gives each group position's partition
    (None = one partition) and ``peer_ids`` its peer group, which
    breaks at partition boundaries (both from
    :func:`~repro.window.partition.sort_group`). Bounds are resolved
    for every row — RANGE and GROUPS frames and the EXCLUDE pieces read
    neighbouring rows — before ``start`` / ``end`` / ``pieces`` keep
    only the answered rows."""
    n = len(order)
    columns = {name: (_gather(values, order), validity[order])
               for name, (values, validity) in column_data.items()}
    frame = spec.effective_frame()
    order_cols = []
    for item in spec.order_by:
        values, validity = columns[item.column]
        order_cols.append(SortColumn(
            values, descending=item.descending,
            nulls_last=item.resolved_nulls_last(), validity=validity))
    peers = PeerGroups(peer_ids)

    range_keys = None
    if frame.mode is FrameMode.RANGE:
        range_keys = _range_keys(order_cols)

    start, end = resolve_bounds(_localize_offsets(frame, order), n,
                                range_keys=range_keys, peers=peers,
                                partition_ids=partition_ids)
    pieces = exclusion_ranges(start, end, frame.exclusion, peers)
    pieces = [(np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64))
              for lo, hi in pieces]
    if answer is not None and len(answer) < n:
        start, end = start[answer], end[answer]
        pieces = [(lo[answer], hi[answer]) for lo, hi in pieces]
    return PartitionView(columns, n, start, end, pieces, peers,
                         frame.exclusion, window_order=spec.order_by,
                         structures=structures, rows=answer,
                         partition_ids=partition_ids)


def _range_keys(order_cols: List[SortColumn]) -> Optional[np.ndarray]:
    """The single numeric key RANGE offsets search against, ascending
    inside each partition, or None when no such key exists (legal as
    long as the frame uses only UNBOUNDED / CURRENT ROW bounds, which
    peer groups can resolve). NULLs sit at ±inf inside their own
    partition."""
    if len(order_cols) != 1:
        return None
    col = order_cols[0]
    values = col.values
    if not isinstance(values, np.ndarray):
        return None
    keys = values.astype(np.float64)
    if col.descending:
        keys = -keys
    if col.validity is not None:
        nulls_at = np.inf if col.nulls_last else -np.inf
        keys = np.where(col.validity, keys, nulls_at)
    return keys


def _localize_offsets(frame: FrameSpec, order: np.ndarray) -> FrameSpec:
    """Per-row offset arrays are given in input order; gather them into
    window order."""

    def localize(bound: FrameBound) -> FrameBound:
        if bound.offset is None or np.isscalar(bound.offset):
            return bound
        arr = np.asarray(bound.offset)
        if len(arr) != len(order):
            raise FrameError(
                "per-row frame offsets must align with the input table")
        return FrameBound(bound.type, arr[order])

    if (frame.start.offset is None or np.isscalar(frame.start.offset)) and \
            (frame.end.offset is None or np.isscalar(frame.end.offset)):
        return frame
    return FrameSpec(frame.mode, localize(frame.start), localize(frame.end),
                     frame.exclusion)


def _unique_name(name: str, taken: set) -> str:
    if name not in taken:
        return name
    suffix = 1
    while f"{name}_{suffix}" in taken:
        suffix += 1
    return f"{name}_{suffix}"
