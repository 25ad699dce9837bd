"""Session-lifetime shared-memory table arena.

Without it, every probe-fan group of a process-pool session would copy
its trees' levels into fresh ``multiprocessing.shared_memory``
segments: correct, but identical on every repeat of the same query —
the ``repro.serve`` steady state. The :class:`TableArena` amortizes
that setup out of the hot path (entries: tree levels, the only arrays
workers read):

* **keyed by tree** — an entry is keyed by a token stamped on the
  tree's levels, and the tree itself lives in the content-keyed
  structure cache (:mod:`repro.cache.fingerprint`), so a repeat query
  over unchanged data attaches zero-copy, and a mutated
  (re-registered) table builds a new tree that simply misses — stale
  entries age out via LRU instead of being a correctness hazard;
* **pinned while in use** — a group execution takes an
  :class:`ArenaLease`, which pins every entry it touches until the
  group finishes; eviction only ever removes unpinned entries, so a
  segment is never unlinked under a live worker;
* **budgeted** — bytes are charged to the session
  :class:`~repro.resilience.memory.MemoryGovernor` under the
  ``"shm-arena"`` tag, LRU-evicted while the arena's own
  ``budget_bytes`` or the session ledger is over budget, and offered
  back through :meth:`reclaim` (registered as a governor reclaimer) so
  a batch query under pressure evicts warm-start state *before* being
  shed;
* **observable** — cold materializations run under a ``shm.copy``
  trace span (warm attaches emit none — asserted in tests), evictions
  count into ``HealthCounters.arena_evictions``, and
  :meth:`ArenaStats.to_dict` feeds the ``repro_arena_*`` metrics and
  the healthz arena block.

Segments use the ``repro-arena-p<pid>-<hex>`` naming scheme
(:data:`repro.parallel.shm.ARENA_PREFIX`): pid-tagged like transient
group segments — the orphan sweep reclaims them once the owning pid
dies and never before — but distinct, so leak tests can require
``owned_segments() == []`` after every query while the arena persists
until session close.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.shm import (
    ARENA_PREFIX,
    ShmArraySpec,
    create_segment,
    release_segment,
)
from repro.resilience.context import current_context

__all__ = ["TableArena", "ArenaLease", "ArenaStats", "ARENA_TAG"]

#: Memory-governor ledger tag for arena bytes.
ARENA_TAG = "shm-arena"


@dataclass
class ArenaStats:
    """A snapshot of the arena's contents and traffic counters."""

    entries: int = 0
    bytes: int = 0
    pinned: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    budget_bytes: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "pinned": self.pinned,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "budget_bytes": self.budget_bytes,
        }

    def render(self) -> str:
        budget = ("unlimited" if self.budget_bytes is None
                  else f"{self.budget_bytes:,}B")
        return (f"arena: entries={self.entries} bytes={self.bytes:,}B "
                f"budget={budget} hits={self.hits} misses={self.misses} "
                f"evictions={self.evictions}")


class _Entry:
    __slots__ = ("key", "specs", "views", "segments", "nbytes", "pins",
                 "seq")

    def __init__(self, key: Tuple[Any, ...]) -> None:
        self.key = key
        self.specs: Tuple[Optional[ShmArraySpec], ...] = ()
        self.views: Tuple[Optional[np.ndarray], ...] = ()
        self.segments: List[Any] = []
        self.nbytes = 0
        self.pins = 0
        self.seq = 0


class ArenaLease:
    """The pins one group execution holds; release exactly once.

    ``get`` returns the entry's specs/views with the entry pinned; all
    pins drop together at :meth:`release` (the operator's ``finally``),
    after which the entries are evictable again."""

    def __init__(self, arena: "TableArena") -> None:
        self._arena = arena
        self._entries: List[_Entry] = []

    def get(self, key: Tuple[Any, ...],
            build: Callable[[], Optional[Sequence[Optional[np.ndarray]]]],
            ) -> Optional[_Entry]:
        """Pinned entry for ``key``, materializing via ``build`` on a
        miss. ``build`` may return ``None`` (not shareable) — nothing
        is cached and ``None`` is returned."""
        entry = self._arena._acquire(key, build)
        if entry is not None:
            self._entries.append(entry)
        return entry

    def release(self) -> None:
        entries, self._entries = self._entries, []
        self._arena._unpin(entries)


class TableArena:
    """Session-lifetime cache of shared-memory array tuples.

    One per :class:`~repro.parallel.scheduler.WindowScheduler` (created
    lazily when the process executor first runs); closed with it. All
    methods are thread-safe; materialization happens under the lock —
    acceptable because the supervised pool serializes group execution
    anyway and a miss is exactly the copy we are amortizing away."""

    def __init__(self, budget_bytes: Optional[int] = None,
                 governor: Any = None) -> None:
        self.budget_bytes = (None if budget_bytes is None
                             else max(int(budget_bytes), 0))
        self._governor = governor
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[Any, ...], _Entry] = {}
        self._seq = itertools.count(1)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bytes = 0
        self._closed = False
        if governor is not None and hasattr(governor, "add_reclaimer"):
            governor.add_reclaimer(self.reclaim)

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------
    def lease(self) -> ArenaLease:
        return ArenaLease(self)

    def _acquire(self, key: Tuple[Any, ...],
                 build: Callable[[], Optional[
                     Sequence[Optional[np.ndarray]]]],
                 ) -> Optional[_Entry]:
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                entry.seq = next(self._seq)
                entry.pins += 1
                return entry
            arrays = build()
            if arrays is None:
                return None
            entry = self._materialize(key, arrays)
            self._misses += 1
            entry.pins = 1
            entry.seq = next(self._seq)
            self._entries[key] = entry
            self._bytes += entry.nbytes
            if self._governor is not None:
                self._governor.charge(entry.nbytes, ARENA_TAG)
            self._evict_locked()
            return entry

    def _materialize(self, key: Tuple[Any, ...],
                     arrays: Sequence[Optional[np.ndarray]]) -> _Entry:
        # The cold path: one segment + memcpy per array, under a
        # ``shm.copy`` span so traces show exactly when the copy phase
        # ran — and tests can assert warm queries never re-enter it.
        entry = _Entry(key)
        nbytes = sum(int(a.nbytes) for a in arrays if a is not None)
        with current_context().tracer.span("shm.copy", kind=str(key[0]),
                                           bytes=nbytes):
            specs: List[Optional[ShmArraySpec]] = []
            views: List[Optional[np.ndarray]] = []
            try:
                for array in arrays:
                    if array is None:
                        specs.append(None)
                        views.append(None)
                        continue
                    array = np.ascontiguousarray(array)
                    segment = create_segment(array.nbytes, ARENA_PREFIX)
                    entry.segments.append(segment)
                    entry.nbytes += segment.size
                    view = np.ndarray(array.shape, dtype=array.dtype,
                                      buffer=segment.buf)
                    view[...] = array
                    specs.append(ShmArraySpec(segment.name,
                                              array.dtype.str,
                                              array.shape))
                    views.append(view)
            except BaseException:
                for segment in entry.segments:
                    release_segment(segment)
                raise
        entry.specs = tuple(specs)
        entry.views = tuple(views)
        return entry

    def _unpin(self, entries: Sequence[_Entry]) -> None:
        with self._lock:
            for entry in entries:
                entry.pins = max(entry.pins - 1, 0)
            self._evict_locked()

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _over_budget(self) -> bool:
        if (self.budget_bytes is not None
                and self._bytes > self.budget_bytes):
            return True
        gov = self._governor
        return (gov is not None and getattr(gov, "limited", False)
                and gov.over_budget)

    def _evict_locked(self, shortfall: Optional[int] = None) -> int:
        freed = 0
        while True:
            if shortfall is None:
                if not self._over_budget():
                    break
            elif freed >= shortfall:
                break
            victim = None
            for entry in self._entries.values():
                if entry.pins:
                    continue
                if victim is None or entry.seq < victim.seq:
                    victim = entry
            if victim is None:
                break
            freed += self._drop_locked(victim)
            self._evictions += 1
            current_context().health.arena_evictions += 1
        return freed

    def _drop_locked(self, entry: _Entry) -> int:
        self._entries.pop(entry.key, None)
        for segment in entry.segments:
            release_segment(segment)
        entry.segments = []
        entry.views = ()
        self._bytes -= entry.nbytes
        if self._governor is not None:
            self._governor.release(entry.nbytes, ARENA_TAG)
        return entry.nbytes

    def reclaim(self, shortfall: int) -> int:
        """Governor reclaimer hook: evict unpinned LRU entries until
        ``shortfall`` bytes are freed (or nothing evictable remains);
        returns the bytes actually freed."""
        with self._lock:
            if self._closed or shortfall <= 0:
                return 0
            return self._evict_locked(shortfall=int(shortfall))

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> ArenaStats:
        with self._lock:
            return ArenaStats(
                entries=len(self._entries),
                bytes=self._bytes,
                pinned=sum(1 for e in self._entries.values() if e.pins),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                budget_bytes=self.budget_bytes,
            )

    def close(self) -> None:
        """Unlink every segment (pinned or not) and refund the ledger.

        Only called once no group is in flight (scheduler close)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for entry in list(self._entries.values()):
                self._drop_locked(entry)
            self._entries.clear()

    def __enter__(self) -> "TableArena":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
