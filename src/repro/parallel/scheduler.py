"""Morsel-driven parallel window execution (paper Section 5).

The window operator hands each group's partition layout to a
:class:`WindowScheduler`, which estimates the group's cost and picks
one of three strategies:

* **inter-partition** — many partitions: bin-pack them into morsels
  (LPT, largest processing time first) and run build + evaluate for
  whole partitions on the worker pool. Structures stay partition-local,
  so tasks share nothing but the output buffers — and those are written
  at precomputed disjoint global positions, never by completion order,
  so results are bit-identical to serial execution.
* **intra-partition** — one partition dominates: build its structures
  once on the query thread, then fan the per-row probe arrays out to
  the workers (:class:`~repro.parallel.probes.ProcessProbes` over
  ``batched_count`` / ``batched_select`` / ``batched_aggregate``),
  sharing the tree read-only exactly as Section 5.2 describes.
* **serial** — below a cost threshold: tiny inputs take the exact
  pre-existing code path and pay zero overhead. A group whose working
  set exceeds the session memory governor's headroom runs serial too,
  so it copies no inputs or result buffers into shared memory.

``workers`` is the only parallelism setting (argument >
``REPRO_WORKERS`` > 1): 1 is serial, 2 or more is the supervised
*process* pool of :mod:`repro.parallel.procpool` — child processes
reading columns through shared memory. The pool is **session-owned,
bounded and reused across queries**: a
:class:`~repro.sql.session.Session` creates one scheduler whose single
pool is shared by every query the gateway admits. Admission may run
``max_concurrent`` queries at once, but the pool runs one group at a
time on its ``workers`` children, so ``workers x max_concurrent``
oversubscription cannot happen by construction.

Degradation is per group and has one rung: when shared-memory setup
fails, the ``worker.pool`` breaker is open, the columns cannot ship
(strings, UDAFs) or the pool breaks, the group runs the serial kernels
on the query thread — the same code ``workers=1`` runs — and the
decision records why. A broken pool stays broken for the session:
later groups get a serial decision up front.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.context import current_context

#: Strategy names (also what EXPLAIN's Parallelism section prints).
SERIAL = "serial"
INTER_PARTITION = "inter-partition"
INTRA_PARTITION = "intra-partition"

#: Abstract operations (:func:`estimated_group_ops` units) below which a
#: window group runs serially. Calibrated so sub-~5k-row groups — where
#: Python partition bookkeeping dwarfs any numpy win — never pay fan-out.
DEFAULT_MIN_PARALLEL_OPS = 150_000.0

#: Smallest dominant partition worth intra-partition probe fan-out.
DEFAULT_MIN_INTRA_ROWS = 16_384

#: A partition holding at least this fraction of the group's rows makes
#: inter-partition bin-packing pointless (its morsel is the makespan).
DEFAULT_DOMINANCE = 0.5


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
    morsels: int = 0
    partitions: int = 0
    rows: int = 0
    reason: str = ""
    #: where the group runs: "process" for a parallel strategy, which
    #: the operator downgrades to "serial" in place when shared-memory
    #: setup fails or the group is ineligible (non-numeric columns).
    executor: str = SERIAL
    #: inter-partition only: morsel -> partition indices (ascending).
    plan: Optional[List[np.ndarray]] = None

    def render(self) -> str:
        text = (f"{self.strategy} workers={self.workers} "
                f"partitions={self.partitions} rows={self.rows}")
        if self.strategy != SERIAL:
            text += f" executor={self.executor}"
        if self.strategy == INTER_PARTITION:
            text += f" morsels={self.morsels}"
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
    inter_groups: int = 0
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
            f"inter={self.inter_groups} intra={self.intra_groups}) "
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


def bin_pack(sizes: np.ndarray, bins: int) -> List[np.ndarray]:
    """LPT bin-packing of partitions into ``bins`` morsels.

    Partitions are placed largest-first onto the least-loaded bin (ties
    broken by bin index, so the packing is deterministic); each morsel's
    partition indices come back ascending so morsel-internal evaluation
    order matches serial order. Empty bins are dropped."""
    import heapq

    bins = max(min(int(bins), len(sizes)), 1)
    if bins == 1:
        return [np.arange(len(sizes), dtype=np.int64)]
    # Stable largest-first order: sort by (-size, index).
    order = np.lexsort((np.arange(len(sizes)), -np.asarray(sizes)))
    heap = [(0, b) for b in range(bins)]
    heapq.heapify(heap)
    assignment: List[List[int]] = [[] for _ in range(bins)]
    for p in order:
        load, b = heapq.heappop(heap)
        assignment[b].append(int(p))
        heapq.heappush(heap, (load + int(sizes[p]), b))
    return [np.asarray(sorted(bucket), dtype=np.int64)
            for bucket in assignment if bucket]


def estimated_group_ops(sizes: np.ndarray, n_calls: int) -> float:
    """Rough abstract-operation count for one window group.

    The merge-sort-tree model (the default evaluation strategy): per
    row and tree level, 1.0 for the sort, 0.8 for the tree merge and
    1.6 for the probes — ``3.4 * n * log2(n)`` — scaled by the call
    count. The threshold decision only needs the order of magnitude,
    not the exact constant."""
    n = int(np.sum(sizes))
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
                 dominance: float = DEFAULT_DOMINANCE,
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
        self.dominance = float(dominance)
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

    def invalidate_arena(self, token) -> int:
        """Drop unpinned arena entries keyed by ``token`` (a content
        fingerprint); 0 when no arena exists. Called on table
        re-registration — content keys already make stale hits
        impossible, this merely frees the bytes early."""
        with self._lock:
            arena = self._arena
        return 0 if arena is None else arena.invalidate(token)

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
    def choose(self, sizes: Sequence[int], n_calls: int) -> GroupDecision:
        """Pick a strategy for one group of ``len(sizes)`` partitions."""
        sizes = np.asarray(sizes, dtype=np.int64)
        partitions = len(sizes)
        rows = int(sizes.sum()) if partitions else 0
        if self.workers <= 1:
            return self._record(GroupDecision(
                SERIAL, workers=1, partitions=partitions, rows=rows,
                reason="workers=1"))
        if not self.process_enabled:
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, partitions=partitions,
                rows=rows, reason="process pool broken"))
        ops = estimated_group_ops(sizes, n_calls)
        if ops < self.min_parallel_ops:
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, partitions=partitions,
                rows=rows,
                reason=f"below cost threshold "
                       f"({ops:.0f} < {self.min_parallel_ops:.0f} ops)"))
        # Working set: the sort permutation plus one value array per
        # call (the gathered per-partition inputs are bounded by the
        # same figure).
        if self.governor is not None and self.governor.exceeds_headroom(
                rows * 8 * (n_calls + 1)):
            return self._record(GroupDecision(
                SERIAL, workers=self.workers, partitions=partitions,
                rows=rows, reason="exceeds memory headroom"))
        largest = int(sizes.max()) if partitions else 0
        if largest >= self.dominance * rows:
            if largest < self.min_intra_rows:
                return self._record(GroupDecision(
                    SERIAL, workers=self.workers, partitions=partitions,
                    rows=rows,
                    reason=f"dominant partition too small for probe "
                           f"fan-out ({largest} < {self.min_intra_rows} "
                           f"rows)"))
            morsels = math.ceil(largest / self._intra_task_size(largest))
            return self._record(GroupDecision(
                INTRA_PARTITION, workers=self.workers, morsels=morsels,
                partitions=partitions, rows=rows, executor=self.executor,
                reason=f"largest partition holds "
                       f"{largest * 100 // max(rows, 1)}% of rows"))
        plan = bin_pack(sizes, self.workers * self.morsels_per_worker)
        return self._record(GroupDecision(
            INTER_PARTITION, workers=self.workers, morsels=len(plan),
            partitions=partitions, rows=rows,
            executor=self.executor, plan=plan))

    def _intra_task_size(self, rows: int) -> int:
        """Probe task size that gives every worker a few morsels even
        when the partition is smaller than the default 20k morsel."""
        target = math.ceil(rows / (self.workers * self.morsels_per_worker))
        return max(min(self.task_size, target), 4_096)

    def process_probes(self, decision: GroupDecision, lease):
        """Process-pool probe kernels for one intra-partition group.

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
        """Run one group's tasks on the supervised process pool.

        Thin accounting wrapper over
        :meth:`repro.parallel.procpool.ProcessPool.run_group` (the
        operator builds the shared-memory job; this layer only owns
        pool lifecycle and counters). Returns the lost tasks.
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
            elif decision.strategy == INTER_PARTITION:
                self._stats.inter_groups += 1
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
                inter_groups=self._stats.inter_groups,
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
              (("inter-partition",), s.inter_groups),
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
