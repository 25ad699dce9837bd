"""Child-process side of the process-based window executor.

:func:`worker_main` is the target of every pool worker: a loop reading
task messages from a duplex pipe, evaluating whole partitions against
zero-copy views of the parent's shared-memory columns — or, for an
intra-partition **probe fan** (``ProcProbeJob``), running row ranges of
the batched probe kernels against a shared read-only merge sort tree —
and scattering numeric results straight into shared output buffers at
their precomputed *global* row positions.

Every input view a worker attaches is marked read-only
(``ndarray.flags.writeable = False``): the parent's columns and tree
levels are shared pages, so a buggy kernel mutating its input would
silently corrupt every sibling worker and the parent — with the flag
cleared it raises ``ValueError`` instead. Only the designated output
scatter buffers stay writable.

Probe-fan amortization: the tree levels of a probe job travel as
arena-segment handles tagged with a stable ``token``; a worker keeps a
small LRU of attached trees (:data:`_LEVELS_CACHE_MAX`), so the many
probe batches one window group issues — and repeat queries against the
same cached structure — attach the levels once per worker, not once
per batch.

Bit-identical output is by construction, not by protocol care: the
child runs the **same** partition-build and evaluation code as the
serial path (:func:`repro.window.operator._build_partition` /
:func:`repro.window.evaluators.evaluate_call`). Every call's result
type is fixed before evaluation, so the parent allocates exactly one
typed values buffer and one validity mask per call and a task's ack
carries nothing — a process-eligible group has only numeric columns
and no UDAF, hence no result that cannot live in shared memory.

A worker holds the attachments for at most one group at a time; a task
for a new group closes the previous group's segments first, and an
``exit`` message (or pipe EOF — the parent died) closes everything.

Deterministic crash testing: when ``REPRO_PROC_CHAOS`` is set to
``kill:<partition>:<times>:<dir>``, a worker about to evaluate
partition ``<partition>`` SIGKILLs itself — at most ``<times>`` times
across all workers, coordinated through O_EXCL marker files in
``<dir>`` — so the chaos suite can stage "the morsel's worker dies
mid-query" (once: retried; twice: quarantined) reproducibly.
"""

from __future__ import annotations

import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.probes import SERIAL_PROBES, probe_range
from repro.parallel.shm import ShmArraySpec, attach_array
from repro.resilience.context import AMBIENT, activate
from repro.sortutil import SortColumn
from repro.window.calls import WindowCall
from repro.window.frame import WindowSpec

#: Environment switch for the deterministic worker-kill chaos hook.
CHAOS_ENV = "REPRO_PROC_CHAOS"


@dataclass(frozen=True)
class ProcGroupJob:
    """Everything a worker needs to evaluate one window group.

    Columns, the sort permutation and the output buffers travel as
    :class:`~repro.parallel.shm.ShmArraySpec` handles (zero-copy);
    the spec, calls and partition offsets are small and pickle with
    the task message."""

    #: message discriminator read by the pool dispatcher / worker loop.
    kind = "task"

    group_id: str
    table_rows: int
    #: column name -> (values spec, validity spec)
    columns: Dict[str, Tuple[ShmArraySpec, ShmArraySpec]]
    order: ShmArraySpec
    #: per sorted row, its output position or -1 (not answered); the
    #: ``order`` handle itself when every row is answered in place.
    slots: ShmArraySpec
    starts: np.ndarray
    spec: WindowSpec
    calls: Tuple[WindowCall, ...]
    #: per call: (typed values, validity mask) scatter buffers, one
    #: entry per output row.
    out: Tuple[Tuple[ShmArraySpec, ShmArraySpec], ...]


@dataclass
class ProcTask:
    """One unit of pool work: whole partitions × a call subset.

    Inter-partition morsels carry many partitions and every call;
    intra-partition fan-out carries the dominant partition and a single
    call. ``crashes`` counts workers this task has killed — at
    ``quarantine_after`` the supervisor pulls it from rotation."""

    task_id: int
    partitions: Tuple[int, ...]
    call_indices: Tuple[int, ...]
    crashes: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LevelsHandle:
    """Picklable handle to one merge sort tree living in shm segments.

    ``token`` is stable for the lifetime of the parent-side arena entry
    (and changes on re-materialization only with identical content, so
    a worker's cached attach can never go stale in value)."""

    token: str
    fanout: int
    sample_every: int
    keys: Tuple[ShmArraySpec, ...]
    anchors: Tuple[Optional[ShmArraySpec], ...]
    bridges: Tuple[Optional[ShmArraySpec], ...]
    agg_prefix: Tuple[Optional[ShmArraySpec], ...]


@dataclass(frozen=True)
class ProcProbeJob:
    """One probe batch fanned over row ranges (intra-partition).

    ``op`` selects the batched kernel; ``inputs`` are the per-row probe
    arrays (each length ``rows``); ``outputs`` are the scatter buffers
    the kernels' results land in, dtyped exactly as the serial kernels
    return (int64 counts/selects, float64 non-count aggregates) so the
    parent reads back bit-identical values."""

    kind = "probe"

    probe_id: str
    op: str  # "count" | "select" | "aggregate"
    levels: LevelsHandle
    inputs: Tuple[Tuple[str, ShmArraySpec], ...]
    outputs: Tuple[ShmArraySpec, ...]
    agg_kind: Optional[str] = None
    #: the partition index being probed — chaos-kill attribution only.
    partition: int = 0


@dataclass
class ProcProbeTask:
    """One row range ``[lo, hi)`` of a probe batch."""

    task_id: int
    lo: int
    hi: int
    crashes: int = field(default=0, compare=False)


class _GroupState:
    """A worker's attachments and rebuilt inputs for one group."""

    def __init__(self, job: ProcGroupJob) -> None:
        self.group_id = job.group_id
        self.job = job
        self._segments = []
        self.columns: Dict[str, Tuple[Any, np.ndarray]] = {}
        for name, (values_spec, validity_spec) in job.columns.items():
            values = self._attach(values_spec)
            validity = self._attach(validity_spec)
            self.columns[name] = (values, validity)
        self.order = self._attach(job.order)
        self.slots = self._attach(job.slots)
        self.out = [(self._attach(values, writable=True),
                     self._attach(mask, writable=True))
                    for values, mask in job.out]
        self.order_columns: List[SortColumn] = []
        for item in job.spec.order_by:
            values, validity = self.columns[item.column]
            self.order_columns.append(SortColumn(
                values, descending=item.descending,
                nulls_last=item.resolved_nulls_last(),
                validity=validity))
        self.frame = job.spec.effective_frame()

    def _attach(self, spec: ShmArraySpec,
                writable: bool = False) -> np.ndarray:
        array, segment = attach_array(spec)
        if not writable:
            # Inputs are the parent's shared pages; a mutating kernel
            # must raise here, not corrupt every sibling worker.
            array.flags.writeable = False
        self._segments.append(segment)
        return array

    def close(self) -> None:
        self.columns.clear()
        self.order = self.slots = None
        del self.out[:]
        self.order_columns = []
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - already closed
                pass
        del self._segments[:]


#: token -> (TreeLevels, [segments]) — per-worker attach-once cache of
#: shared merge sort trees; bounded, LRU, dies with the worker.
_LEVELS_CACHE: "OrderedDict[str, Tuple[Any, List[Any]]]" = OrderedDict()
_LEVELS_CACHE_MAX = 8


def _attach_readonly(spec: ShmArraySpec, segments: List[Any]) -> np.ndarray:
    array, segment = attach_array(spec)
    array.flags.writeable = False
    segments.append(segment)
    return array


def _attached_levels(handle: LevelsHandle) -> Any:
    """The worker's read-only view of a shared tree (cached by token)."""
    cached = _LEVELS_CACHE.get(handle.token)
    if cached is not None:
        _LEVELS_CACHE.move_to_end(handle.token)
        return cached[0]
    from repro.mst.build import TreeLevels

    segments: List[Any] = []

    def attach(specs):
        return [None if s is None else _attach_readonly(s, segments)
                for s in specs]

    levels = TreeLevels(fanout=handle.fanout,
                        sample_every=handle.sample_every,
                        keys=attach(handle.keys),
                        anchors=attach(handle.anchors),
                        bridges=attach(handle.bridges),
                        agg_prefix=attach(handle.agg_prefix))
    _LEVELS_CACHE[handle.token] = (levels, segments)
    while len(_LEVELS_CACHE) > _LEVELS_CACHE_MAX:
        _, (_, old_segments) = _LEVELS_CACHE.popitem(last=False)
        for segment in old_segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - already closed
                pass
    return levels


def _close_levels_cache() -> None:
    while _LEVELS_CACHE:
        _, (_, segments) = _LEVELS_CACHE.popitem(last=False)
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - already closed
                pass


class _ProbeState:
    """A worker's attachments for one probe batch (inputs + outputs)."""

    def __init__(self, job: ProcProbeJob) -> None:
        self.probe_id = job.probe_id
        self.job = job
        self._segments: List[Any] = []
        self.inputs: Dict[str, np.ndarray] = {
            name: _attach_readonly(spec, self._segments)
            for name, spec in job.inputs}
        self.outputs: List[np.ndarray] = []
        for spec in job.outputs:
            array, segment = attach_array(spec)
            self._segments.append(segment)
            self.outputs.append(array)

    def close(self) -> None:
        self.inputs.clear()
        del self.outputs[:]
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - already closed
                pass
        del self._segments[:]


def run_probe_task(state: _ProbeState, task: ProcProbeTask) -> None:
    """Run one row range of a probe batch against the shared tree,
    straight into the shared output buffers
    (:func:`~repro.parallel.probes.probe_range`)."""
    job = state.job
    _chaos_maybe_kill(job.partition)
    probe_range(_attached_levels(job.levels), job.op, state.inputs,
                state.outputs, task.lo, task.hi, job.agg_kind)


def _chaos_maybe_kill(partition: int) -> None:
    """SIGKILL this worker if the chaos schedule says so (see module
    docstring). O_EXCL marker files make the kill count exact even
    with several workers racing toward the target partition."""
    schedule = os.environ.get(CHAOS_ENV)
    if not schedule:
        return
    try:
        action, target, times, directory = schedule.split(":", 3)
        target, times = int(target), int(times)
    except ValueError:
        return
    if action != "kill" or partition != target:
        return
    for attempt in range(times):
        marker = os.path.join(directory, f"kill-{attempt}")
        try:
            handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return
        os.close(handle)
        os.kill(os.getpid(), signal.SIGKILL)


def run_task(state: _GroupState, task: ProcTask) -> None:
    """Evaluate one task, scattering every (call, partition) result
    into the call's shared values buffer and validity mask — the rows
    the parent answers, at the output positions its ``slots`` give.
    The ack carries nothing: a task either completes — its rows are in
    shared memory — or is lost and re-run by the parent."""
    from repro.window.evaluators import evaluate_call
    from repro.window.operator import _build_partition

    job = state.job
    starts = job.starts
    for p in task.partitions:
        _chaos_maybe_kill(int(p))
        rows = state.order[starts[p]:starts[p + 1]]
        targets = state.slots[starts[p]:starts[p + 1]]
        answer = np.flatnonzero(targets >= 0)
        view = _build_partition(
            state.columns, rows, job.spec, state.frame,
            state.order_columns, job.table_rows,
            structures=None, probes=SERIAL_PROBES, answer=answer)
        targets = targets[answer]
        for ci in task.call_indices:
            values, validity = evaluate_call(job.calls[ci], view)
            out_values, out_validity = state.out[ci]
            out_values[targets] = values
            out_validity[targets] = True if validity is None else validity


def worker_main(conn, worker_index: int, heartbeat) -> None:
    """Pool worker loop: recv task -> evaluate -> send ack, forever.

    ``heartbeat[worker_index]`` is stamped with ``time.monotonic()``
    around every task and on every idle poll tick, so the parent can
    report liveness ages; hang *detection* runs on the parent's
    pluggable clock against dispatch timestamps, not on these stamps.
    """
    state: Optional[_GroupState] = None
    # A forked worker inherits the spawning query's thread-local
    # context — deadlines, armed faults, breakers. Workers run under
    # the ambient context instead: supervision (timeouts, fault
    # injection, retry policy) is entirely parent-side.
    with activate(AMBIENT):
        _worker_loop(conn, worker_index, heartbeat, state)
        _close_levels_cache()


def _worker_loop(conn, worker_index: int, heartbeat,
                 state: Optional[_GroupState]) -> None:
    probe_state: Optional[_ProbeState] = None
    try:
        while True:
            heartbeat[worker_index] = time.monotonic()
            if not conn.poll(0.25):
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent is gone
                break
            if message[0] not in ("task", "probe"):
                break
            kind, job, task = message
            heartbeat[worker_index] = time.monotonic()
            try:
                if kind == "task":
                    if state is None or state.group_id != job.group_id:
                        if state is not None:
                            state.close()
                        state = _GroupState(job)
                    run_task(state, task)
                else:
                    if (probe_state is None
                            or probe_state.probe_id != job.probe_id):
                        if probe_state is not None:
                            probe_state.close()
                        probe_state = _ProbeState(job)
                    run_probe_task(probe_state, task)
                reply = ("ok", task.task_id)
            except BaseException as exc:
                # Deterministic failures reproduce on the parent's
                # serial re-run with their full typed identity; the
                # summary here is only for the narrative.
                reply = ("err", task.task_id,
                         f"{type(exc).__name__}: {exc}")
            heartbeat[worker_index] = time.monotonic()
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # parent is gone
                break
    finally:
        if state is not None:
            state.close()
        if probe_state is not None:
            probe_state.close()
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass
