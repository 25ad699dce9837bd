"""The window operator: partition, sort, frame, evaluate, scatter.

The classic structure from Leis et al. [27]: the input is sorted once by
(PARTITION BY, ORDER BY); each partition resolves its frame bounds and
evaluates every window function against shared index structures; results
are scattered back to the original row order as new columns.

A consumer that keeps only some rows passes a **row demand**
(``WindowOperator(..., rows=...)``: ascending input positions, e.g. the
first k under a LIMIT k). Partitions are still sorted and framed whole
— the trees span the partition and RANGE / GROUPS / EXCLUDE frames read
neighbouring rows — but each partition answers only its demanded rows
(:attr:`~repro.window.partition.PartitionView.rows`), a partition with
none is skipped outright (no gather, no structure, no probe), and the
output holds the demanded rows alone. Without a demand every row is
demanded: there is one evaluation path. Answering k rows of a built
tree costs k probes (PAPER.md §1), so a LIMIT 100 over 20 000 rows
probes 100 frames, not 20 000.

Partition evaluation is scheduled by a
:class:`~repro.parallel.scheduler.WindowScheduler` (Section 5): many
small partitions are bin-packed into morsels that run whole on the
session's worker pool (inter-partition), a dominant partition builds
once and fans its probe arrays out over the pool (intra-partition), and
small groups stay on the pre-existing serial path. Whatever the
strategy, each partition scatters its values into precomputed output
positions, so results are bit-identical to serial execution
regardless of completion order. The scheduler sizes a group by its
answered rows, so a small demand keeps the group serial.

The pool is the supervised process pool (``workers >= 2``): input
columns, the sort permutation and per-call scatter buffers are shared
with child processes through :mod:`repro.parallel.shm`, and workers
run the same partition-build/evaluate code against zero-copy views.
Degradation is per group — shared-memory setup failure, an open
``worker.pool`` breaker, a non-numeric (process-ineligible) column set,
or a broken pool each downgrade the group in place to the serial
kernels on the query thread, and quarantined morsels re-run there too
— so a dying worker fleet costs throughput, never answers.

Two refinements amortize the pool's per-query setup:

* Input columns and the sort permutation live in the session-lifetime
  :class:`~repro.parallel.arena.TableArena` rather than per-group
  transient segments. Entries are content-keyed
  (:mod:`repro.cache.fingerprint`), pinned through an
  :class:`~repro.parallel.arena.ArenaLease` for the duration of the
  group, and copied at most once per session — a warm repeat query
  skips the argsort *and* the column copy and its workers attach
  zero-copy (only result scatter buffers stay transient).
* Intra-partition groups no longer ship per-call to workers. The
  partition builds (or attaches) its structures once on the query
  thread, tree levels are serialized into the arena, and only the
  per-row probe batches fan out (:class:`~repro.parallel.probes
  .ProcessProbes`) — build-once now *does* cross process boundaries.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CircuitOpenError, FrameError, WorkerPoolError
from repro.obs import NULL_SPAN
from repro.parallel.probes import SERIAL_PROBES, ProbeKernels
from repro.parallel.scheduler import (
    INTRA_PARTITION,
    SERIAL,
    WindowScheduler,
    default_scheduler,
)
from repro.resilience.context import current_context
from repro.resilience.guard import breaker_allow, breaker_failure
from repro.sortutil import SortColumn, sorted_equal_runs, stable_argsort
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
from repro.window.partition import PartitionView


class WindowOperator:
    """Evaluates window function calls over a table.

    Calls sharing a :class:`WindowSpec` share partitioning, sorting and
    frame resolution (the reuse optimisation of Kohn et al. [24] /
    Cao et al. [11]).
    """

    def __init__(self, table: Table, cache: Any = None,
                 parallel: Optional[WindowScheduler] = None,
                 rows: Optional[Sequence[int]] = None) -> None:
        self.table = table
        self.cache = cache  # optional repro.cache.StructureCache
        #: Scheduler for morsel-driven evaluation; None falls back to
        #: the process-wide default (sized by ``REPRO_WORKERS``).
        self.parallel = parallel
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
                                      parallel=self.parallel,
                                      demand=self.rows)
            for call, column in zip(calls, results):
                name = _unique_name(call.output_name,
                                    {field.name for field in fields})
                fields.append(Field(name, column.dtype))
                columns.append(column)
        return Table.from_columns(Schema(fields), columns,
                                  name=self.table.name)


def window_query(table: Table, calls: Sequence[WindowCall],
                 spec: WindowSpec, cache: Any = None,
                 parallel: Optional[WindowScheduler] = None) -> Table:
    """One-shot convenience: evaluate ``calls`` over one window spec."""
    operator = WindowOperator(table, cache=cache, parallel=parallel)
    for call in calls:
        operator.add(call, spec)
    return operator.run()


# ----------------------------------------------------------------------
# group evaluation
# ----------------------------------------------------------------------
class _GroupResults:
    """The group's output columns being assembled across partitions:
    per call one values buffer of the call's static type and one
    validity mask of ``n`` output rows, both preallocated before the
    group runs. Every group path — serial, probe fan, process group —
    ends in :meth:`scatter`, and each scatter targets disjoint output
    positions."""

    def __init__(self, table: Table, calls: Sequence[WindowCall],
                 n: int) -> None:
        #: Per call: the result type, None = inferred (a UDAF).
        self.types = [
            result_type(call, table.schema.field(call.args[0]).dtype
                        if call.args and call.args[0] in table.schema
                        else None)
            for call in calls]
        self.values = [
            np.zeros(n, dtype=getattr(dtype, "numpy_dtype", None) or object)
            for dtype in self.types]
        self.validity = [np.ones(n, dtype=np.bool_) for _ in calls]

    def scatter(self, call_index: int, rows: np.ndarray,
                values: np.ndarray, validity: Optional[np.ndarray]) -> None:
        self.values[call_index][rows] = values
        self.validity[call_index][rows] = \
            True if validity is None else validity

    def finish(self) -> List[Column]:
        """The completed columns, wrapped without boxing a value —
        except a UDAF's, whose type only its states can tell."""
        columns = []
        for dtype, values, validity in zip(self.types, self.values,
                                           self.validity):
            if dtype is None:
                boxed = to_list((values, validity))
                columns.append(Column(infer_dtype(boxed), boxed))
            else:
                columns.append(Column.from_numpy(dtype, values, validity))
        return columns


def _evaluate_group(table: Table, spec: WindowSpec,
                    calls: Sequence[WindowCall],
                    cache: Any = None,
                    parallel: Optional[WindowScheduler] = None,
                    demand: Optional[np.ndarray] = None
                    ) -> List[Column]:
    scheduler = parallel if parallel is not None else default_scheduler()
    # The arena lease spans the whole group: every entry it touches
    # (sort permutation, input columns, serialized tree levels) stays
    # pinned — and therefore mapped — until the last scatter.
    lease = (scheduler.table_arena().lease()
             if scheduler.process_enabled else None)
    try:
        return _evaluate_group_inner(table, spec, calls, cache,
                                     scheduler, lease, demand)
    finally:
        if lease is not None:
            lease.release()


def _resolve_order(lease: Any, table: Table, spec: WindowSpec,
                   sort_columns: List[SortColumn], n: int
                   ) -> Tuple[np.ndarray, Optional[Any], bool]:
    """The group's sort permutation, arena-cached when possible.

    With a process-pool lease and at least one sort key the
    permutation lives in the table arena, keyed by the content
    fingerprint of the sort columns plus the spec's ordering signature:
    a warm repeat query skips the argsort *and* the copy, and the
    returned spec ships to workers without a transient segment.

    Returns ``(order, arena spec or None, shm_failed)``: a
    shared-memory failure computes the permutation in place — the query
    must not fail — and reports ``shm_failed=True`` so the caller can
    take the group down the same degradation rung as a column-share
    failure instead of touching shared memory again."""
    names = list(spec.partition_by) + [i.column for i in spec.order_by]
    if lease is None or not names:
        return stable_argsort(sort_columns, n), None, False
    from repro.cache.fingerprint import spec_signature, table_fingerprint
    key = ("order", table_fingerprint(table, names), spec_signature(spec))
    try:
        entry = lease.get(key,
                          lambda: [stable_argsort(sort_columns, n)])
    except OSError:
        return stable_argsort(sort_columns, n), None, True
    return entry.views[0], entry.specs[0], False


def _evaluate_group_inner(table: Table, spec: WindowSpec,
                          calls: Sequence[WindowCall],
                          cache: Any, scheduler: WindowScheduler,
                          lease: Any, demand: Optional[np.ndarray]
                          ) -> List[Column]:
    n = table.num_rows
    ctx = current_context()
    tracer = ctx.tracer
    group_key = None
    if cache is not None:
        from repro.cache.fingerprint import window_group_key
        group_key = window_group_key(table, spec, calls)
    partition_span = tracer.span("partition", rows=n) \
        if tracer.enabled else None
    try:
        partition_columns = []
        for name in spec.partition_by:
            values, validity = _column_data(table, name)
            partition_columns.append(SortColumn(values, validity=validity))
        order_columns = []
        for item in spec.order_by:
            values, validity = _column_data(table, name=item.column)
            order_columns.append(
                SortColumn(values, descending=item.descending,
                           nulls_last=item.resolved_nulls_last(),
                           validity=validity))
        order, order_spec, order_shm_failed = _resolve_order(
            lease, table, spec, partition_columns + order_columns, n)

        # Partition boundaries along the sorted order.
        if partition_columns:
            partition_ids = sorted_equal_runs(partition_columns, order)
        else:
            partition_ids = np.zeros(n, dtype=np.int64)

        frame = spec.effective_frame()
        all_column_data = {name: _column_data(table, name)
                           for name in table.schema.names()}

        boundaries = np.flatnonzero(
            np.r_[True, partition_ids[1:] != partition_ids[:-1]])
        starts = np.append(boundaries, n)
        sizes = np.diff(starts)
        # slots[i]: the output position of the i-th row in window
        # order, -1 where the consumer keeps no row. Without a demand
        # every row is answered at its own input position.
        slots = order
        if demand is not None:
            slots = np.full(n, -1, dtype=np.int64)
            slots[demand] = np.arange(len(demand))
            slots = slots[order]
        answered_before = np.r_[0, np.cumsum(slots >= 0)]
        answered = answered_before[starts[1:]] - answered_before[starts[:-1]]
        # Partitions holding no answered row are skipped outright: no
        # gather, no structure, no probe.
        live = np.flatnonzero(answered).tolist()
        if partition_span is not None:
            partition_span.annotate(partitions=len(sizes))
    finally:
        if partition_span is not None:
            partition_span.__exit__(None, None, None)

    buffers = _GroupResults(table, calls,
                            n if demand is None else len(demand))

    def evaluate_partition(p: int, probes: ProbeKernels) -> None:
        """Build, evaluate and scatter one partition's answered rows.

        Cache pins are acquired under the store lock inside the
        builder and released in this call's ``finally``, so failure or
        cancellation never leaves a pin behind."""
        rows = order[starts[p]:starts[p + 1]]
        targets = slots[starts[p]:starts[p + 1]]
        answer = np.flatnonzero(targets >= 0)
        acquirer = None
        if cache is not None:
            from repro.cache.store import StructureAcquirer
            acquirer = StructureAcquirer(cache, group_key + (p,))
        view = _build_partition(all_column_data, rows, spec, frame,
                                order_columns, table.num_rows,
                                structures=acquirer, probes=probes,
                                answer=answer)
        targets = targets[answer]
        try:
            for call_index, call in enumerate(calls):
                buffers.scatter(call_index, targets,
                                *evaluate_call(call, view))
        finally:
            if acquirer is not None:
                acquirer.release_all()

    # The scheduler sizes the work by the rows answered, not the rows
    # partitioned: a LIMIT 100 group is a serial group.
    decision = scheduler.choose(answered[live], len(calls))

    group_span = tracer.span(
        "window.group", strategy=decision.strategy,
        executor=decision.executor,
        partitions=len(sizes), rows=n, calls=len(calls),
        answered=int(answered.sum()),
        morsels=decision.morsels) if tracer.enabled else NULL_SPAN
    with group_span:
        if decision.strategy != SERIAL:
            if order_shm_failed:
                # The permutation's arena materialization already hit
                # the shared-memory failure — same rung of the ladder
                # as a column-share failure inside the group helpers.
                breaker_failure(ctx, ctx.breaker("worker.pool"))
                handled = _downgrade(ctx, scheduler, decision,
                                     "shared-memory setup failed")
            elif decision.strategy == INTRA_PARTITION:
                handled = _run_group_probe_fan(
                    ctx, scheduler, decision, lease,
                    evaluate_partition, live)
            else:
                handled = _run_group_process(
                    ctx, scheduler, decision, spec, calls, table,
                    all_column_data, order, order_spec, slots, starts,
                    live, buffers, evaluate_partition, n, lease)
            if handled:
                return buffers.finish()
            # The helper downgraded the decision in place; the group
            # continues on the serial path below.
        for p in live:
            # Partition boundaries are the operator's batch
            # boundaries: an expired deadline or cancellation
            # surfaces here rather than hanging through the
            # remaining partitions.
            ctx.checkpoint()
            evaluate_partition(p, SERIAL_PROBES)
    return buffers.finish()


# ----------------------------------------------------------------------
# process pool (shared-memory columns, supervised workers)
# ----------------------------------------------------------------------
#: Deterministic group ids for worker-side state caching.
_GROUP_SEQ = itertools.count()


def _process_needed_columns(spec: WindowSpec,
                            calls: Sequence[WindowCall],
                            all_column_data: Dict[str, Any]) -> set:
    """Columns a worker must see to evaluate this group: the window
    ORDER BY keys (peer groups / RANGE keys) plus everything any call
    references. PARTITION BY columns are not needed — partition
    boundaries ship precomputed."""
    needed = {item.column for item in spec.order_by}
    for call in calls:
        needed.update(a for a in call.args if isinstance(a, str))
        if call.filter_where:
            needed.add(call.filter_where)
        needed.update(item.column for item in call.order_by)
    return needed & set(all_column_data)


def _process_eligible(spec: WindowSpec, calls: Sequence[WindowCall],
                      all_column_data: Dict[str, Any]) -> bool:
    """Whether this group can ship through shared memory: every needed
    column numpy-numeric (strings/objects don't map into segments) and
    no UDAF calls (arbitrary callables may not survive pickling)."""
    if any(call.udaf is not None for call in calls):
        return False
    for name in _process_needed_columns(spec, calls, all_column_data):
        values, _validity = all_column_data[name]
        if not isinstance(values, np.ndarray) \
                or values.dtype.kind not in "biuf":
            return False
    return True


def _downgrade(ctx: Any, scheduler: WindowScheduler, decision: Any,
               reason: str, fallback: bool = True) -> bool:
    """Downgrade one group to the serial kernels in place. Returns
    False so callers can ``return _downgrade(...)`` from the process
    helpers (False = the serial loop of the caller runs the group)."""
    if fallback:
        ctx.record_fallback(reason)
    decision.executor = SERIAL
    decision.reason = (f"{decision.reason}; {reason}"
                       if decision.reason else reason)
    scheduler.note_degraded_group()
    return False


def _process_tasks(decision: Any, num_calls: int,
                   live: List[int]) -> list:
    """An inter-partition group's work as pool tasks: one task per
    planned morsel, all calls. The plan indexes the ``live`` partitions
    (those with an answered row) the scheduler was given. (Intra-
    partition groups no longer ship whole to workers — they evaluate on
    the query thread and fan probe batches instead; see
    :func:`_run_group_probe_fan`.)"""
    from repro.parallel.procworker import ProcTask

    all_calls = tuple(range(num_calls))
    return [ProcTask(m, tuple(live[p] for p in bucket), all_calls)
            for m, bucket in enumerate(decision.plan)]


def _run_group_probe_fan(ctx: Any, scheduler: WindowScheduler,
                         decision: Any, lease: Any,
                         evaluate_partition: Any,
                         live: List[int]) -> bool:
    """Run one intra-partition group with probes fanned to the pool.

    Unlike the inter-partition path, evaluation stays on the query
    thread: each partition builds (or cache-attaches) its structures
    once, the tree levels are serialized into the arena, and only the
    per-row probe batches ship to workers. Returns True when the group
    evaluated — possibly with mid-group degradation to the serial
    kernels, which the probes object records — and False only when the
    ``worker.pool`` breaker was already open, after downgrading
    ``decision.executor`` in place like :func:`_run_group_process`."""
    breaker = ctx.breaker("worker.pool")
    try:
        breaker_allow(ctx, breaker)
    except CircuitOpenError:
        return _downgrade(ctx, scheduler, decision,
                          "worker.pool breaker open")

    probes = scheduler.process_probes(decision, lease)
    for p in live:
        ctx.checkpoint()
        probes.partition = p
        evaluate_partition(p, probes)

    notes = []
    if probes.broken_reason is not None:
        # Mid-group pool loss: batches fanned before the failure kept
        # their results, the rest ran on the serial kernels — the
        # output is whole either way, so record the degradation rather
        # than re-running anything.
        breaker_failure(ctx, breaker)
        ctx.record_fallback(probes.broken_reason)
        scheduler.note_degraded_group()
        notes.append(probes.broken_reason)
    elif probes.fallback_reason is not None:
        # Structural: these partitions' tree levels cannot map into
        # shared memory. Routine (like process-ineligible columns), so
        # no fallback health counter — but a group where *nothing*
        # fanned still counts degraded for the scheduler stats.
        if probes.fanned == 0:
            scheduler.note_degraded_group()
        notes.append(probes.fallback_reason)
    if probes.fanned:
        if breaker is not None and probes.broken_reason is None:
            breaker.record_success()
        scheduler.note_process_group()
    if notes:
        extra = "; ".join(notes)
        decision.reason = (f"{decision.reason}; {extra}"
                           if decision.reason else extra)
    return True


def _run_group_process(ctx: Any, scheduler: WindowScheduler,
                       decision: Any, spec: WindowSpec,
                       calls: Sequence[WindowCall], table: Table,
                       all_column_data: Dict[str, Any],
                       order: np.ndarray, order_spec: Any,
                       slots: np.ndarray, starts: np.ndarray,
                       live: List[int], buffers: _GroupResults,
                       evaluate_partition: Any, n: int,
                       lease: Any) -> bool:
    """Try to run one parallel group on the supervised process pool.

    Returns True when the group's buffers are fully scattered (the
    caller finishes them); False after downgrading
    ``decision.executor`` to ``"serial"`` in place, leaving the buffers
    untouched for the caller's serial loop. Quarantined or
    child-errored morsels re-run here on the in-thread degraded path —
    a partial pool failure never downgrades the already-acked work.

    Input columns come through the arena ``lease`` from the
    session-lifetime table arena (content-keyed; copied at most once
    per session) and ``order_spec`` — the permutation's arena handle
    from :func:`_resolve_order` — ships directly; only the result
    scatter buffers, and under a row demand the ``slots`` workers
    scatter by, live in the per-group transient arena."""
    from repro.cache.fingerprint import column_fingerprint
    from repro.parallel.procworker import ProcGroupJob
    from repro.parallel.shm import ShmArena

    def downgrade(reason: str, fallback: bool = True) -> bool:
        return _downgrade(ctx, scheduler, decision, reason, fallback)

    breaker = ctx.breaker("worker.pool")
    try:
        breaker_allow(ctx, breaker)
    except CircuitOpenError:
        return downgrade("worker.pool breaker open")

    if not _process_eligible(spec, calls, all_column_data):
        # Static ineligibility is routine (any string column), not a
        # degradation event: skip the fallback health counter.
        return downgrade("process-ineligible columns", fallback=False)

    arena = ShmArena(governor=getattr(ctx, "memory", None))
    try:
        columns = {}
        for name in sorted(_process_needed_columns(
                spec, calls, all_column_data)):
            values, validity = all_column_data[name]
            entry = lease.get(
                ("col", column_fingerprint(table.column(name))),
                lambda v=values, m=validity: [v, m])
            columns[name] = (entry.specs[0], entry.specs[1])
        job = ProcGroupJob(
            group_id=f"p{os.getpid()}-g{next(_GROUP_SEQ)}",
            table_rows=n,
            columns=columns,
            order=order_spec,
            slots=order_spec if slots is order else arena.share(slots),
            starts=np.asarray(starts, dtype=np.int64),
            spec=spec,
            calls=tuple(calls),
            out=tuple((arena.create(values.shape, values.dtype),
                       arena.create(values.shape, np.bool_))
                      for values in buffers.values))
    except OSError:
        arena.close()
        breaker_failure(ctx, breaker)
        return downgrade("shared-memory setup failed")

    tasks = _process_tasks(decision, len(calls), live)
    try:
        lost = scheduler.run_process_tasks(job, tasks)
    except WorkerPoolError:
        breaker_failure(ctx, breaker)
        scheduler.mark_process_broken()
        arena.close()
        return downgrade("process pool broken")
    except BaseException:
        arena.close()
        raise

    try:
        # Workers scattered at the output positions; rows of lost
        # morsels hold garbage until the re-run below overwrites them.
        for ci, (values, mask) in enumerate(job.out):
            buffers.values[ci][:] = arena.view(values)
            buffers.validity[ci][:] = arena.view(mask)
    finally:
        arena.close()

    # Quarantined (or child-errored) morsels: the degraded in-thread
    # path, same code as serial execution. A deterministic evaluation
    # error re-raises here with its full typed identity.
    for task in lost:  # every task carries every call
        for p in task.partitions:
            ctx.checkpoint()
            evaluate_partition(int(p), SERIAL_PROBES)

    if breaker is not None:
        breaker.record_success()
    scheduler.note_process_group()
    return True


def _column_data(table: Table, name: str) -> Tuple[Any, np.ndarray]:
    column = table.column(name)
    return column.raw(), column.validity


def _gather(values: Any, rows: np.ndarray) -> Any:
    if isinstance(values, np.ndarray):
        return values[rows]
    return [values[i] for i in rows]


def _build_partition(all_column_data: Dict[str, Tuple[Any, np.ndarray]],
                     rows: np.ndarray, spec: WindowSpec, frame: FrameSpec,
                     order_columns: List[SortColumn],
                     table_rows: int, structures: Any = None,
                     probes: ProbeKernels = SERIAL_PROBES,
                     answer: Optional[np.ndarray] = None) -> PartitionView:
    """The partition of global ``rows`` (in window order) as a view that
    answers the local positions ``answer`` (None = every row).

    Columns and peer groups cover the whole partition, and bounds are
    resolved for all of it — RANGE and GROUPS frames and the EXCLUDE
    pieces read neighbouring rows — before ``start`` / ``end`` /
    ``pieces`` keep only the answered rows."""
    local_n = len(rows)
    columns: Dict[str, Tuple[Any, np.ndarray]] = {}
    for name, (values, validity) in all_column_data.items():
        columns[name] = (_gather(values, rows), validity[rows])

    # Peer groups along the partition (identity order after the sort).
    local_order_cols = []
    for item, col in zip(spec.order_by, order_columns):
        local_order_cols.append(SortColumn(
            _gather(col.values, rows),
            descending=col.descending, nulls_last=col.nulls_last,
            validity=None if col.validity is None else col.validity[rows]))
    if local_order_cols:
        identity = np.arange(local_n, dtype=np.int64)
        peers = PeerGroups(sorted_equal_runs(local_order_cols, identity))
    else:
        peers = PeerGroups.single_group(local_n)

    range_keys = None
    if frame.mode is FrameMode.RANGE:
        range_keys = _range_keys(spec, local_order_cols, local_n)

    local_frame = _localize_offsets(frame, rows, table_rows)
    start, end = resolve_bounds(local_frame, local_n, range_keys=range_keys,
                                peers=peers)
    pieces = exclusion_ranges(start, end, frame.exclusion, peers)
    pieces = [(np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64))
              for lo, hi in pieces]
    if answer is not None and len(answer) < local_n:
        start, end = start[answer], end[answer]
        pieces = [(lo[answer], hi[answer]) for lo, hi in pieces]
    return PartitionView(columns, local_n, start, end, pieces, peers,
                         frame.exclusion, window_order=spec.order_by,
                         structures=structures, probes=probes, rows=answer)


def _range_keys(spec: WindowSpec, local_order_cols: List[SortColumn],
                n: int) -> Optional[np.ndarray]:
    """The single ascending numeric key RANGE offsets search against, or
    None when no such key exists (legal as long as the frame uses only
    UNBOUNDED / CURRENT ROW bounds, which peer groups can resolve)."""
    if len(local_order_cols) != 1:
        return None
    col = local_order_cols[0]
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


def _localize_offsets(frame: FrameSpec, rows: np.ndarray,
                      table_rows: int) -> FrameSpec:
    """Per-row offset arrays are given in original table order; gather
    them into the partition's local order."""

    def localize(bound: FrameBound) -> FrameBound:
        if bound.offset is None or np.isscalar(bound.offset):
            return bound
        arr = np.asarray(bound.offset)
        if len(arr) != table_rows:
            raise FrameError(
                "per-row frame offsets must align with the input table")
        return FrameBound(bound.type, arr[rows])

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
