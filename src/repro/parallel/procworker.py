"""Child-process side of the probe fan.

:func:`worker_main` is the target of every pool worker: a loop reading
probe tasks (``ProcProbeJob`` + ``ProcProbeTask``) from a duplex pipe
and running row ranges of the batched probe kernels against a shared
read-only merge sort tree, scattering results straight into shared
output buffers at the batch's row positions.

Every input view a worker attaches is marked read-only
(``ndarray.flags.writeable = False``): tree levels and probe arrays are
the parent's shared pages, so a buggy kernel mutating its input would
silently corrupt every sibling worker and the parent — with the flag
cleared it raises ``ValueError`` instead. Only the designated output
scatter buffers stay writable.

Probe-fan amortization: the tree levels of a probe job travel as
arena-segment handles tagged with a stable ``token``; a worker keeps a
small LRU of attached trees (:data:`_LEVELS_CACHE_MAX`), so the many
probe batches one window group issues — and repeat queries against the
same cached structure — attach the levels once per worker, not once
per batch.

Bit-identical output is by construction: the child runs the **same**
kernel body as the parent's serial recompute of a lost range
(:func:`repro.parallel.probes.probe_range`), and the output buffers are
dtyped exactly as the serial kernels return.

A worker holds the input attachments for at most one probe batch at a
time; a task of a new batch closes the previous batch's segments first,
and an ``exit`` message (or pipe EOF — the parent died) closes
everything.

Deterministic crash testing: when ``REPRO_PROC_CHAOS`` is set to
``kill:<row>:<times>:<dir>``, a worker about to probe a row range that
holds row ``<row>`` of its batch (the batch's queries are the group's
answered rows, in window order) SIGKILLs itself — at most ``<times>``
times across all workers, coordinated through O_EXCL marker files in
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

from repro.parallel.probes import probe_range
from repro.parallel.shm import ShmArraySpec, attach_array
from repro.resilience.context import AMBIENT, activate

#: Environment switch for the deterministic worker-kill chaos hook.
CHAOS_ENV = "REPRO_PROC_CHAOS"


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
    #: The top-level key counts (:class:`~repro.mst.build.KeyCounts`).
    top: Optional[ShmArraySpec] = None
    top_low: Optional[int] = None


@dataclass(frozen=True)
class ProcProbeJob:
    """One probe batch fanned over row ranges.

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


@dataclass
class ProcProbeTask:
    """One row range ``[lo, hi)`` of a probe batch. ``crashes`` counts
    workers this task has killed — at ``quarantine_after`` the
    supervisor pulls it from rotation."""

    task_id: int
    lo: int
    hi: int
    crashes: int = field(default=0, compare=False)


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
    from repro.mst.build import KeyCounts, TreeLevels

    segments: List[Any] = []

    def attach(specs):
        return [None if s is None else _attach_readonly(s, segments)
                for s in specs]

    (top,) = attach([handle.top])
    levels = TreeLevels(fanout=handle.fanout,
                        sample_every=handle.sample_every,
                        keys=attach(handle.keys),
                        anchors=attach(handle.anchors),
                        bridges=attach(handle.bridges),
                        agg_prefix=attach(handle.agg_prefix),
                        top=None if top is None
                        else KeyCounts(top, handle.top_low))
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
    _chaos_maybe_kill(task.lo, task.hi)
    probe_range(_attached_levels(job.levels), job.op, state.inputs,
                state.outputs, task.lo, task.hi, job.agg_kind)


def _chaos_maybe_kill(lo: int, hi: int) -> None:
    """SIGKILL this worker if the chaos schedule targets a row of
    ``[lo, hi)`` (see module docstring). O_EXCL marker files make the
    kill count exact even with several workers racing toward the
    target row."""
    schedule = os.environ.get(CHAOS_ENV)
    if not schedule:
        return
    try:
        action, target, times, directory = schedule.split(":", 3)
        target, times = int(target), int(times)
    except ValueError:
        return
    if action != "kill" or not lo <= target < hi:
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


def worker_main(conn, worker_index: int, heartbeat) -> None:
    """Pool worker loop: recv probe task -> run it -> send ack, forever.

    ``heartbeat[worker_index]`` is stamped with ``time.monotonic()``
    around every task and on every idle poll tick, so the parent can
    report liveness ages; hang *detection* runs on the parent's
    pluggable clock against dispatch timestamps, not on these stamps.
    """
    # A forked worker inherits the spawning query's thread-local
    # context — deadlines, armed faults, breakers. Workers run under
    # the ambient context instead: supervision (timeouts, fault
    # injection, retry policy) is entirely parent-side.
    with activate(AMBIENT):
        _worker_loop(conn, worker_index, heartbeat)
        _close_levels_cache()


def _worker_loop(conn, worker_index: int, heartbeat) -> None:
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
            if message[0] != "probe":
                break
            _, job, task = message
            heartbeat[worker_index] = time.monotonic()
            try:
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
        if probe_state is not None:
            probe_state.close()
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass
