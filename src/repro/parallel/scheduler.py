"""Parallel window execution (paper Section 5): serial or the probe fan.

A window group is one evaluation however many partitions it has (see
:mod:`repro.window.operator`), so the only parallelism left inside a
group is the paper's Section 5.2 one: build the structures once on the
query thread, share them read-only, and fan the per-row probe arrays
out as morsels. The operator hands each group's answered row count to
a :class:`WindowScheduler`, which estimates the group's cost and picks:

* **intra-partition** (the probe fan) — the query thread builds (or
  cache-attaches) each structure, and the per-row probe batches fan out
  to the workers (:class:`~repro.parallel.probes.ProcessProbes` over
  ``batched_count`` / ``batched_select`` / ``batched_aggregate``).
  Every batch scatters into precomputed positions, so results are
  bit-identical to serial execution.
* **serial** — below a cost threshold, below the fan's row floor, or
  beyond the session memory governor's headroom: the group runs the
  serial kernels and pays zero overhead.

``workers`` is the only parallelism setting (argument >
``REPRO_WORKERS`` > 1): 1 is serial, 2 or more is the supervised
*process* pool of :mod:`repro.parallel.procpool` — child processes
reading tree levels and probe arrays through shared memory. The pool is
**session-owned, bounded and reused across queries**: a
:class:`~repro.sql.session.Session` creates one scheduler whose single
pool is shared by every query the gateway admits. Admission may run
``max_concurrent`` queries at once, but the pool runs one probe batch
at a time on its ``workers`` children, so ``workers x max_concurrent``
oversubscription cannot happen by construction.

Degradation is per group and has one rung: when shared-memory setup
fails, the ``worker.pool`` breaker is open or the pool breaks, the
group runs the serial kernels on the query thread — the same code
``workers=1`` runs — and the decision records why. A broken pool stays
broken for the session: later groups get a serial decision up front.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.resilience.context import current_context

#: Strategy names (also what EXPLAIN's Parallelism section prints).
SERIAL = "serial"
#: The probe fan: parallelism inside the group's one evaluation.
INTRA_PARTITION = "intra-partition"

#: Abstract operations (:func:`estimated_group_ops` units) below which a
#: window group runs serially. Calibrated so sub-~5k-row groups — where
#: Python bookkeeping dwarfs any numpy win — never pay fan-out.
DEFAULT_MIN_PARALLEL_OPS = 150_000.0

#: Fewest answered rows worth a probe fan.
DEFAULT_MIN_INTRA_ROWS = 16_384


# Both resolvers parse the environment with the session config's
# parser (a non-integer raises ConfigurationError), imported lazily:
# repro.sql imports the window operator, which imports this module.
def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit ``workers`` argument, else ``REPRO_WORKERS``, else 1."""
    if workers is None:
        from repro.sql.config import _env_int
        workers = _env_int(os.environ, "REPRO_WORKERS")
    return max(int(workers or 1), 1)


def resolve_arena_bytes(arena_bytes: Optional[int] = None
                        ) -> Optional[int]:
    """Explicit argument, else ``REPRO_ARENA_BYTES``, else unlimited."""
    if arena_bytes is None:
        from repro.sql.config import _env_int
        arena_bytes = _env_int(os.environ, "REPRO_ARENA_BYTES")
    return None if arena_bytes is None else max(int(arena_bytes), 0)


@dataclass
class GroupDecision:
    """One window group's scheduling outcome (shown by EXPLAIN)."""

    strategy: str
    workers: int = 1
    #: probe tasks per fanned batch (0 for serial).
    morsels: int = 0
    #: the rows the group answers.
    rows: int = 0
    reason: str = ""
    #: where the group runs: "process" for the probe fan, which the
    #: operator downgrades to "serial" in place when shared-memory
    #: setup fails or the ``worker.pool`` breaker is open.
    executor: str = SERIAL

    def render(self) -> str:
        text = f"{self.strategy} workers={self.workers} rows={self.rows}"
        if self.strategy != SERIAL:
            text += f" executor={self.executor} morsels={self.morsels}"
        if self.reason:
            text += f" — {self.reason}"
        return text


@dataclass
class ParallelStats:
    """Scheduler counters plus the most recent group decisions."""

    workers: int = 1
    executor: str = SERIAL
    groups: int = 0
    serial_groups: int = 0
    intra_groups: int = 0
    morsels_run: int = 0
    process_groups: int = 0   # groups that completed on the process pool
    degraded_groups: int = 0  # process groups downgraded to serial
    pool_started: bool = False
    #: supervisor + live-worker snapshot when a process pool exists.
    worker_pool: Optional[dict] = None
    #: shared-memory table arena snapshot once one exists.
    arena: Optional[Any] = None  # ArenaStats

    decisions: List[GroupDecision] = field(default_factory=list)

    def render(self) -> List[str]:
        lines = [
            f"workers={self.workers} executor={self.executor} "
            f"pool_started={self.pool_started} "
            f"groups={self.groups} (serial={self.serial_groups} "
            f"intra={self.intra_groups}) "
            f"morsels_run={self.morsels_run}",
        ]
        if self.process_groups or self.degraded_groups:
            lines.append(
                f"process_groups={self.process_groups} "
                f"degraded_groups={self.degraded_groups}")
        pool = self.worker_pool
        if pool is not None:
            lines.append(
                f"worker pool: live={pool['live']} "
                f"spawned={pool['spawned']} restarts={pool['restarts']} "
                f"crashes={pool['crashes']} hangs={pool['hangs']} "
                f"retries={pool['retries']} "
                f"quarantined={pool['quarantined']}")
        if self.arena is not None:
            lines.append(self.arena.render())
        for decision in self.decisions:
            lines.append(f"group: {decision.render()}")
        return lines


def estimated_group_ops(rows: int, n_calls: int) -> float:
    """Rough abstract-operation count for one window group answering
    ``rows`` rows.

    The merge-sort-tree model (the default evaluation strategy): per
    row and tree level, 1.0 for the sort, 0.8 for the tree merge and
    1.6 for the probes — ``3.4 * n * log2(n)`` — scaled by the call
    count. The threshold decision only needs the order of magnitude,
    not the exact constant."""
    n = int(rows)
    if n <= 0:
        return 0.0
    level_ops = n * math.log2(max(n, 2))
    return ((1.0 * level_ops + 0.8 * level_ops + 1.6 * level_ops)
            * max(int(n_calls), 1))


class WindowScheduler:
    """Strategy selection plus the shared worker pool for one session.

    ``workers`` resolves through :func:`resolve_workers` (argument >
    ``REPRO_WORKERS`` env > 1). With ``workers == 1`` every decision is
    serial and no pool is ever created, so the scheduler costs nothing
    when parallelism is off. With more, the process pool is created
    lazily on the first parallel group and reused until :meth:`close`.
    """

    def __init__(self, workers: Optional[int] = None,
                 morsels_per_worker: int = 4,
                 min_parallel_ops: float = DEFAULT_MIN_PARALLEL_OPS,
                 min_intra_rows: int = DEFAULT_MIN_INTRA_ROWS,
                 task_size: int = 20_000,
                 max_recorded: int = 8,
                 arena_bytes: Optional[int] = None,
                 governor: Any = None) -> None:
        self.workers = resolve_workers(workers)
        #: Derived, never set: two or more workers are processes.
        self.executor = "process" if self.workers > 1 else SERIAL
        self.morsels_per_worker = max(int(morsels_per_worker), 1)
        self.min_parallel_ops = float(min_parallel_ops)
        self.min_intra_rows = int(min_intra_rows)
        self.task_size = max(int(task_size), 1)
        self.max_recorded = max(int(max_recorded), 1)
        self.arena_bytes = resolve_arena_bytes(arena_bytes)
        self.governor = governor
        self._lock = threading.Lock()
        self._procpool = None
        self._arena = None
        #: One WorkerPoolError marks the pool broken for the session;
        #: later groups go straight to serial without re-spawning.
        self._process_broken = False
        self._stats = ParallelStats(workers=self.workers,
                                    executor=self.executor)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def process_pool(self):
        """The supervised process pool (created on first use).

        Imported lazily: the operator imports this module, and the
        process pool's worker side imports the operator — deferring
        the import keeps startup cheap and the cycle harmless."""
        with self._lock:
            if self._procpool is None:
                from repro.parallel.procpool import ProcessPool
                self._procpool = ProcessPool(self.workers)
                self._stats.pool_started = True
            return self._procpool

    def table_arena(self):
        """The session-lifetime shared-memory table arena (lazy).

        Created on the first group of a ``workers >= 2`` session;
        persists — with its column, permutation and tree-level entries
        — until :meth:`close`, which is what makes repeat queries
        warm."""
        with self._lock:
            if self._arena is None:
                from repro.parallel.arena import TableArena
                self._arena = TableArena(budget_bytes=self.arena_bytes,
                                         governor=self.governor)
            return self._arena

    def arena_stats(self):
        """ArenaStats when an arena exists, else None (never creates)."""
        with self._lock:
            arena = self._arena
        return None if arena is None else arena.stats()

    def mark_process_broken(self) -> None:
        """Stop routing groups to the process pool for this session."""
        with self._lock:
            self._process_broken = True

    @property
    def process_enabled(self) -> bool:
        with self._lock:
            return self.workers > 1 and not self._process_broken

    def close(self) -> None:
        with self._lock:
            procpool, self._procpool = self._procpool, None
            arena, self._arena = self._arena, None
        if procpool is not None:
            procpool.close()
        if arena is not None:
            # After the workers: a child may still hold attachments.
            arena.close()

    def __enter__(self) -> "WindowScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # strategy selection
    # ------------------------------------------------------------------
    def choose(self, rows: int, n_calls: int) -> GroupDecision:
        """Pick serial or the probe fan for one group answering ``rows``
        rows with ``n_calls`` calls."""
        rows = int(rows)
        if self.workers <= 1:
            return self._record(GroupDecision(
                SERIAL, workers=1, rows=rows, reason="workers=1"))
        if not self.process_enabled:
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, rows=rows,
                reason="process pool broken"))
        ops = estimated_group_ops(rows, n_calls)
        if ops < self.min_parallel_ops:
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, rows=rows,
                reason=f"below cost threshold "
                       f"({ops:.0f} < {self.min_parallel_ops:.0f} ops)"))
        # Working set: the sort permutation plus one value array per
        # call.
        if self.governor is not None and self.governor.exceeds_headroom(
                rows * 8 * (n_calls + 1)):
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, rows=rows,
                reason="exceeds memory headroom"))
        if rows < self.min_intra_rows:
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, rows=rows,
                reason=f"group too small for probe fan-out ({rows} < "
                       f"{self.min_intra_rows} rows)"))
        return self._record(GroupDecision(
            INTRA_PARTITION, workers=self.workers,
            morsels=math.ceil(rows / self._intra_task_size(rows)),
            rows=rows, executor=self.executor))

    def _intra_task_size(self, rows: int) -> int:
        """Probe task size that gives every worker a few morsels: at
        most ``task_size``, at least 4 096 rows (or ``task_size`` when
        that is smaller)."""
        target = math.ceil(rows / (self.workers * self.morsels_per_worker))
        return max(min(self.task_size, target), min(self.task_size, 4_096))

    def process_probes(self, decision: GroupDecision, lease):
        """Process-pool probe kernels for one probe-fan group.

        ``lease`` is the group's :class:`~repro.parallel.arena
        .ArenaLease` — tree levels serialized for the workers pin on it
        until the operator releases the group."""
        from repro.parallel.probes import ProcessProbes
        return ProcessProbes(
            self, lease,
            task_size=self._intra_task_size(decision.rows),
            min_rows=max(self.min_intra_rows, 1),
            governor=self.governor)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_process_tasks(self, job, tasks):
        """Run one probe batch's tasks on the supervised process pool.

        Thin accounting wrapper over
        :meth:`repro.parallel.procpool.ProcessPool.run_group` (the
        probes build the shared-memory job; this layer only owns pool
        lifecycle and counters). Returns the lost tasks.
        """
        ctx = current_context()
        tracer = ctx.tracer
        pool = self.process_pool()
        if tracer.enabled:
            with tracer.span("worker.pool", tasks=len(tasks),
                             workers=self.workers):
                result = pool.run_group(job, tasks)
        else:
            result = pool.run_group(job, tasks)
        ctx.telemetry.add_morsels(len(tasks))
        with self._lock:
            self._stats.morsels_run += len(tasks)
        return result

    def note_process_group(self) -> None:
        with self._lock:
            self._stats.process_groups += 1

    def note_degraded_group(self) -> None:
        with self._lock:
            self._stats.degraded_groups += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _record(self, decision: GroupDecision) -> GroupDecision:
        current_context().telemetry.record_strategy(decision.strategy)
        with self._lock:
            self._stats.groups += 1
            if decision.strategy == SERIAL:
                self._stats.serial_groups += 1
            else:
                self._stats.intra_groups += 1
            self._stats.decisions.append(decision)
            del self._stats.decisions[:-self.max_recorded]
        return decision

    def worker_stats(self) -> dict:
        """Worker-pool state for ``/v1/healthz`` and the metrics
        exposition: executor/worker configuration, shared-memory bytes
        currently held by this process, and — once a process pool
        exists — supervisor counters and live-worker details."""
        from repro.parallel.shm import current_shm_bytes

        with self._lock:
            procpool = self._procpool
            broken = self._process_broken
            arena = self._arena
        stats = {
            "executor": self.executor,
            "workers": self.workers,
            "process_broken": broken,
            "shm_bytes": current_shm_bytes(),
        }
        if arena is not None:
            stats["arena"] = arena.stats().to_dict()
        if procpool is not None:
            stats.update(procpool.stats())
        return stats

    def stats(self) -> ParallelStats:
        """A snapshot of the counters and recent decisions."""
        with self._lock:
            procpool = self._procpool
            arena = self._arena
            snapshot = ParallelStats(
                workers=self.workers,
                executor=self.executor,
                groups=self._stats.groups,
                serial_groups=self._stats.serial_groups,
                intra_groups=self._stats.intra_groups,
                morsels_run=self._stats.morsels_run,
                process_groups=self._stats.process_groups,
                degraded_groups=self._stats.degraded_groups,
                pool_started=self._stats.pool_started,
                decisions=list(self._stats.decisions))
        if procpool is not None:
            snapshot.worker_pool = procpool.stats()
        if arena is not None:
            snapshot.arena = arena.stats()
        return snapshot

    def metric_rows(self) -> List[Tuple]:
        """Prometheus rows: ``(name, help, kind, label names, [(label
        values, value), ...])`` for the pool, its workers and the arena."""
        s = self.stats()
        w = self.worker_stats()
        a = s.arena
        events = ("spawned", "restarts", "crashes", "hangs", "retries",
                  "quarantined", "spawn_failures")
        return [
            ("repro_pool_workers", "Window pool workers.",
             "gauge", (), [((), s.workers)]),
            ("repro_pool_morsels_total", "Morsel tasks run.",
             "counter", (), [((), s.morsels_run)]),
            ("repro_pool_groups_total",
             "Window groups scheduled, by strategy.",
             "counter", ("strategy",),
             [(("serial",), s.serial_groups),
              (("intra-partition",), s.intra_groups)]),
            ("repro_worker_live", "Live process-pool workers.",
             "gauge", (), [((), w.get("live", 0))]),
            ("repro_worker_shm_bytes",
             "Shared-memory bytes held for worker columns.",
             "gauge", (), [((), w.get("shm_bytes", 0))]),
            ("repro_worker_events_total",
             "Process-pool supervision events, by kind.",
             "counter", ("kind",),
             [((kind,), w.get(kind, 0)) for kind in events]),
            ("repro_worker_groups_total",
             "Parallel groups by executor outcome.",
             "counter", ("outcome",),
             [(("process",), s.process_groups),
              (("degraded",), s.degraded_groups)]),
            ("repro_arena_bytes",
             "Bytes resident in the shared-memory table arena.",
             "gauge", (), [((), a.bytes if a else 0)]),
            ("repro_arena_entries",
             "Entries resident in the shared-memory table arena.",
             "gauge", (), [((), a.entries if a else 0)]),
            ("repro_arena_hits_total",
             "Table-arena hits (zero-copy warm attaches).",
             "counter", (), [((), a.hits if a else 0)]),
            ("repro_arena_misses_total",
             "Table-arena misses (cold materializations).",
             "counter", (), [((), a.misses if a else 0)]),
            ("repro_arena_evictions_total",
             "Table-arena entries evicted under memory pressure.",
             "counter", (), [((), a.evictions if a else 0)]),
        ]


#: Process-wide default scheduler, sized by ``REPRO_WORKERS`` at first
#: use. Lets bare ``window_query`` / ``execute`` calls (no Session)
#: parallelise under the environment switch — which is also how the
#: tier-1 suite exercises the parallel paths end to end.
_default: Optional[WindowScheduler] = None
_default_lock = threading.Lock()


def default_scheduler() -> WindowScheduler:
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = WindowScheduler()
    return _default
