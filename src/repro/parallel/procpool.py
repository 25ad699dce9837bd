"""Supervised process pool for crash-isolated probe fans.

This is the parent side of the probe fan: a small, purpose-built pool
— not ``multiprocessing.Pool`` — because the failure model is the
point. Each worker is a child process running
:func:`repro.parallel.procworker.worker_main` on its own duplex pipe;
tree levels, probe arrays and scatter buffers live in shared memory
(:mod:`repro.parallel.shm`), so the only pickled traffic is the small
job/task envelope.

Per-worker pipes (instead of one shared queue) are what make crash
handling exact: a worker that dies from SIGKILL mid-task closes its
pipe end, the parent's ``connection.wait`` wakes with ``EOFError``, and
the dead worker's *assigned task* (one row range of a probe batch) is
known — so the lost morsel can be retried, and a morsel that kills
:attr:`SupervisorPolicy
<repro.resilience.supervisor.SupervisorPolicy>`\\ ``.quarantine_after``
workers is quarantined and handed back for the parent to recompute
serially. A shared queue cannot attribute a death to a task, and a reader
killed mid-``get`` can corrupt the queue for everyone else.

Supervision (policy in :mod:`repro.resilience.supervisor`):

* dead workers (``is_alive`` false or pipe EOF) and hung workers
  (task older than ``task_timeout`` on the supervising context's
  pluggable clock) are killed and respawned with bounded
  restart-with-backoff;
* when the spawn budget is exhausted and no workers remain, the pool
  raises :class:`~repro.errors.WorkerPoolError` — the window operator
  records the failure against the ``worker.pool`` circuit breaker and
  finishes the group on the serial kernels;
* a query abort (deadline, cancellation) kills busy workers rather
  than letting them scribble into shared buffers the parent is about
  to unlink; an injected ``parallel.morsel`` fault fails just its task
  and the collected failures raise once, aggregated, after the rest of
  the batch drains.

Fault sites: ``worker.spawn`` (before each spawn attempt),
``worker.heartbeat`` (each watchdog check of a busy worker — an
injected fault is treated as a dead heartbeat), ``worker.retry``
(before a lost morsel is re-queued — an injected fault quarantines it
instead), and ``parallel.morsel`` (before each dispatch).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Deque, Dict, List, Optional

from repro.errors import (
    ParallelExecutionError,
    ResilienceError,
    WorkerPoolError,
)
from repro.parallel.procworker import (ProcProbeJob, ProcProbeTask,
                                       worker_main)
from repro.parallel.shm import sweep_orphan_segments
from repro.resilience.context import current_context
from repro.resilience.supervisor import (
    SupervisorPolicy,
    WorkerSupervisor,
)

#: Environment override for the multiprocessing start method.
START_ENV = "REPRO_MP_START"

#: Seconds the parent parks in ``connection.wait`` per loop iteration.
_WAIT_TICK = 0.05

#: One orphan sweep per process, the first time a pool starts.
_swept = False
_sweep_lock = threading.Lock()


def _resolve_start_method(start_method: Optional[str]) -> str:
    """Explicit argument > ``REPRO_MP_START`` > fork where available.

    ``fork`` shares the parent's pages (cheap spawn, env inherited);
    platforms without it fall back to ``spawn``."""
    if start_method is None:
        start_method = (os.environ.get(START_ENV) or "").strip().lower()
    available = multiprocessing.get_all_start_methods()
    if start_method in available:
        return start_method
    return "fork" if "fork" in available else "spawn"


@dataclass
class _Worker:
    """One live child process and its parent-side pipe end."""

    proc: Any
    conn: Any
    index: int
    #: The dispatched task, or None while idle — crash attribution.
    task: Optional[ProcProbeTask] = None
    #: Dispatch timestamp on the supervising context's clock.
    dispatched_at: float = 0.0


@dataclass
class PoolStats:
    """Live-state snapshot merged into ``worker_stats()``."""

    live: int = 0
    busy: int = 0
    pids: List[int] = field(default_factory=list)
    heartbeat_ages: List[float] = field(default_factory=list)


class ProcessPool:
    """A supervised pool of ``workers`` child processes.

    Created lazily by the :class:`~repro.parallel.scheduler.
    WindowScheduler` of a ``workers >= 2`` session;
    reused across queries and closed with the session. ``run_group``
    serialises callers on an internal lock: the pipes and worker task
    slots are single-owner state, so concurrent queries queue for the
    pool one probe batch at a time — the multicore budget stays ``workers``
    no matter how many queries the gateway admits."""

    def __init__(self, workers: int,
                 policy: Optional[SupervisorPolicy] = None,
                 start_method: Optional[str] = None) -> None:
        global _swept
        self.workers = max(int(workers), 1)
        self.supervisor = WorkerSupervisor(self.workers, policy)
        self.policy = self.supervisor.policy
        self._mp = multiprocessing.get_context(
            _resolve_start_method(start_method))
        self.start_method = self._mp.get_start_method()
        self._heartbeat = self._mp.Array("d", self.workers, lock=False)
        self._workers: List[_Worker] = []
        self._free_slots = set(range(self.workers))
        self._spawned_total = 0
        self._closed = False
        self._lock = threading.Lock()
        with _sweep_lock:
            if not _swept:
                _swept = True
                sweep_orphan_segments()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        index = min(self._free_slots)
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        self._heartbeat[index] = time.monotonic()
        proc = self._mp.Process(
            target=worker_main, args=(child_conn, index, self._heartbeat),
            name=f"repro-worker-{index}", daemon=True)
        proc.start()
        child_conn.close()
        self._free_slots.discard(index)
        return _Worker(proc=proc, conn=parent_conn, index=index)

    def _ensure_workers(self, ctx, busy: int, pending_count: int) -> None:
        """Top the pool back up to ``workers`` within the spawn budget.

        Raises :class:`~repro.errors.WorkerPoolError` only when the
        budget is gone, nobody is alive, and work remains — the
        operator's signal to degrade the group."""
        while len(self._workers) < self.workers:
            if not self.supervisor.allow_spawn():
                if not self._workers and (busy or pending_count):
                    stats = self.supervisor.stats()
                    raise WorkerPoolError(
                        f"worker spawn budget exhausted "
                        f"({stats.spawned} spawned, "
                        f"{stats.spawn_failures} failures, "
                        f"budget {self.workers + self.policy.max_restarts})")
                return
            delay = self.supervisor.spawn_delay()
            if delay > 0:
                ctx.clock.sleep(delay)
            initial = self._spawned_total < self.workers
            try:
                ctx.fire("worker.spawn")
                worker = self._spawn()
            except (ResilienceError, ParallelExecutionError):
                raise
            except Exception:
                self.supervisor.note_spawn_failed()
                continue
            self._workers.append(worker)
            self._spawned_total += 1
            self.supervisor.note_spawned(initial=initial)
            if not initial:
                ctx.health.worker_restarts += 1

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        """Remove a worker from the pool, releasing its heartbeat slot."""
        if worker in self._workers:
            self._workers.remove(worker)
        self._free_slots.add(worker.index)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - wedged child
            worker.proc.kill()
            worker.proc.join(timeout=5.0)

    def _handle_crash(self, ctx, worker: _Worker,
                      pending: Deque[ProcProbeTask],
                      lost: List[ProcProbeTask],
                      hang: bool = False) -> None:
        """A worker died (or hung): account it, decide its task's fate."""
        if hang:
            self.supervisor.note_hang()
        else:
            self.supervisor.note_crash()
        ctx.health.worker_crashes += 1
        task = worker.task
        self._retire(worker, kill=hang)
        if task is None:
            return
        task.crashes += 1
        if not self.supervisor.should_quarantine(task.crashes):
            try:
                ctx.fire("worker.retry")
            except Exception:
                pass  # injected retry failure: fall through to quarantine
            else:
                pending.appendleft(task)
                self.supervisor.note_retry()
                ctx.health.morsel_retries += 1
                return
        lost.append(task)
        self.supervisor.note_quarantine()
        ctx.health.morsels_quarantined += 1

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_group(self, job: ProcProbeJob, tasks: List[ProcProbeTask]
                  ) -> List[ProcProbeTask]:
        """Run one probe batch's tasks; returns the lost ones.

        A completed task's results are already in the job's shared
        output buffers; the lost tasks are quarantined morsels (or
        tasks whose probes raised in the child) the caller must
        recompute on the query thread.
        Raises :class:`~repro.errors.WorkerPoolError` when the pool
        itself is broken."""
        with self._lock:
            return self._run_group_locked(job, tasks)

    def _run_group_locked(self, job: ProcProbeJob,
                          tasks: List[ProcProbeTask]
                          ) -> List[ProcProbeTask]:
        if self._closed:
            raise WorkerPoolError("process pool is closed")
        ctx = current_context()
        pending: Deque[ProcProbeTask] = deque(tasks)
        lost: List[ProcProbeTask] = []
        failures: List[ParallelExecutionError] = []
        try:
            while True:
                busy = sum(1 for w in self._workers if w.task is not None)
                if not pending and not busy:
                    break
                ctx.checkpoint()
                self._ensure_workers(ctx, busy, len(pending))
                self._dispatch(ctx, job, pending, failures)
                self._watchdog(ctx, pending, lost)
                self._drain(ctx, pending, lost)
        except BaseException:
            # Abort: never leave children writing into buffers the
            # caller is about to unlink.
            for worker in list(self._workers):
                if worker.task is not None:
                    self.supervisor.note_abort()
                    self._retire(worker, kill=True)
            raise
        if failures:
            # Every task still ran (consuming any remaining planned
            # faults); the collected per-task failures raise once,
            # aggregated and sorted.
            primary = failures[0]
            raise ParallelExecutionError(
                primary.lo, primary.hi,
                primary.__cause__ if primary.__cause__ else primary,
                failures=list(failures)) from primary.__cause__
        return lost

    def _dispatch(self, ctx, job: ProcProbeJob,
                  pending: Deque[ProcProbeTask],
                  failures: List[ParallelExecutionError]) -> None:
        for worker in list(self._workers):
            if not pending:
                return
            if worker.task is not None:
                continue
            task = pending[0]
            try:
                ctx.fire("parallel.morsel")
            except (ResilienceError, ParallelExecutionError):
                raise
            except Exception as exc:
                # Wrapped so chaos suites see one error shape per site.
                # The failed task is consumed, not dispatched;
                # remaining tasks keep running and the aggregate raises
                # at the end of the batch.
                pending.popleft()
                failure = ParallelExecutionError(
                    task.task_id, task.task_id + 1, exc)
                failure.__cause__ = exc
                failures.append(failure)
                continue
            pending.popleft()
            try:
                worker.conn.send((job.kind, job, task))
            except (BrokenPipeError, OSError):
                # Died while idle: requeue without blaming the task.
                pending.appendleft(task)
                self.supervisor.note_crash()
                ctx.health.worker_crashes += 1
                self._retire(worker)
                continue
            worker.task = task
            worker.dispatched_at = ctx.clock.monotonic()

    def _watchdog(self, ctx, pending: Deque[ProcProbeTask],
                  lost: List[ProcProbeTask]) -> None:
        now = ctx.clock.monotonic()
        timeout = self.policy.task_timeout
        for worker in list(self._workers):
            if worker.task is None:
                if not worker.proc.is_alive():
                    self.supervisor.note_crash()
                    ctx.health.worker_crashes += 1
                    self._retire(worker)
                continue
            heartbeat_dead = False
            try:
                ctx.fire("worker.heartbeat")
            except Exception:
                heartbeat_dead = True  # injected: heartbeat lost
            if heartbeat_dead or not worker.proc.is_alive():
                if heartbeat_dead and worker.proc.is_alive():
                    worker.proc.terminate()
                self._handle_crash(ctx, worker, pending, lost)
            elif timeout is not None \
                    and now - worker.dispatched_at > timeout:
                self._handle_crash(ctx, worker, pending, lost, hang=True)

    def _drain(self, ctx, pending: Deque[ProcProbeTask],
               lost: List[ProcProbeTask]) -> None:
        conns = {w.conn: w for w in self._workers if w.task is not None}
        if not conns:
            return
        for ready in connection.wait(list(conns), timeout=_WAIT_TICK):
            worker = conns[ready]
            try:
                message = ready.recv()
            except (EOFError, OSError):
                self._handle_crash(ctx, worker, pending, lost)
                continue
            if message[0] == "ok":
                worker.task = None
            else:  # ("err", task_id, summary): the child evaluation
                # raised. Route the task to the in-thread path, where
                # the same deterministic failure re-raises with its
                # full typed identity (a pickled traceback would not).
                lost.append(worker.task)
                worker.task = None

    # ------------------------------------------------------------------
    # introspection and shutdown
    # ------------------------------------------------------------------
    def live_stats(self) -> PoolStats:
        now = time.monotonic()
        return PoolStats(
            live=len(self._workers),
            busy=sum(1 for w in self._workers if w.task is not None),
            pids=[w.proc.pid for w in self._workers],
            heartbeat_ages=[
                round(max(now - self._heartbeat[w.index], 0.0), 3)
                for w in self._workers])

    def stats(self) -> Dict[str, Any]:
        merged = self.supervisor.stats().to_dict()
        live = self.live_stats()
        merged.update(live=live.live, busy=live.busy, pids=live.pids,
                      heartbeat_ages=live.heartbeat_ages,
                      start_method=self.start_method)
        return merged

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                try:
                    worker.conn.send(("exit",))
                except OSError:
                    pass
            for worker in list(self._workers):
                self._retire(worker)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
