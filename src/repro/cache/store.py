"""Thread-safe LRU structure store with pinning, on the session ledger.

The cache maps canonical keys (built by :mod:`repro.cache.fingerprint`
plus a structure kind and per-call configuration) to live index
structures. Entries are charged real measured bytes (via
:mod:`repro.cache.budget`) to a
:class:`~repro.resilience.memory.MemoryGovernor` under the
``structure_cache`` tag; while that ledger is over its budget the
least-recently-used *unpinned* entries are evicted — dropped, so the
next acquire of that key rebuilds the structure through its builder and
counts a miss. (Writing a tree to disk and reading it back costs
several times its build, so an evicted tree is never kept anywhere.)

Pinning exists because the window operator probes a group's
structures many times between acquire and release — possibly while
other client threads of the session share the tree read-only — and an
eviction mid-probe would pull the structure out from under them. All mutation happens under one re-entrant lock; builds also
run under the lock so two threads asking for the same key never build
twice (builds are GIL-bound numpy work, so serialising them costs
little and guarantees the "built exactly once" invariant).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.cache.budget import structure_bytes
from repro.resilience.context import current_context
from repro.resilience.memory import MemoryGovernor

#: The ledger tag this cache's bytes are held under.
TAG = "structure_cache"


@dataclass
class CacheStats:
    """Counters exposed through ``EXPLAIN`` and the benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_in_use: int = 0     # the ledger's structure_cache tag
    entries: int = 0
    pinned_entries: int = 0   # entries with pins > 0 (0 when quiescent)

    def render(self) -> List[str]:
        """Human-readable lines for ``EXPLAIN`` output."""
        return [
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions}",
            f"entries={self.entries} ({self.pinned_entries} pinned) "
            f"bytes={self.bytes_in_use:,}",
        ]


@dataclass
class _CacheEntry:
    key: Tuple
    structure: Any
    nbytes: int             # charged to the ledger
    pins: int = 0


class StructureCache:
    """LRU cache of window index structures.

    Its bytes live in ``governor``'s ledger (a fresh unlimited
    :class:`~repro.resilience.memory.MemoryGovernor` when None, which
    never evicts); unpinned entries are evicted LRU-first while that
    ledger is over its budget.
    """

    def __init__(self, governor: Optional[MemoryGovernor] = None) -> None:
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._governor = (governor if governor is not None
                          else MemoryGovernor())
        self._stats = CacheStats()

    # ------------------------------------------------------------------
    # acquire / release
    # ------------------------------------------------------------------
    def acquire(self, key: Tuple, builder: Callable[[], Any],
                pin: bool = True) -> Any:
        """Return the structure for ``key``, building it on first use.

        A hit moves the entry to the MRU end. With ``pin=True`` (the
        default) the entry is protected from eviction until a matching
        :meth:`release`. A key whose entry was evicted is a miss: the
        structure is rebuilt through ``builder``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                current_context().telemetry.count_cache_hit()
                if pin:
                    entry.pins += 1
                # An unpinned hit under a tight budget may drop this very
                # entry again; ``entry`` still holds the structure.
                self._evict_to_budget()
                return entry.structure

            structure = builder()
            nbytes = structure_bytes(structure)
            entry = _CacheEntry(key=key, structure=structure, nbytes=nbytes,
                                pins=1 if pin else 0)
            self._entries[key] = entry
            self._governor.charge(nbytes, TAG)
            self._stats.misses += 1
            current_context().telemetry.count_cache_miss()
            self._evict_to_budget()
            return structure

    def release(self, key: Tuple) -> None:
        """Unpin one acquisition of ``key`` and re-run eviction."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:  # evicted-by-clear while pinned: nothing to do
                return
            if entry.pins > 0:
                entry.pins -= 1
            self._evict_to_budget()

    def pin(self, key: Tuple) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.pins += 1

    def unpin(self, key: Tuple) -> None:
        self.release(key)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        # Any session pressure (query reservations, cached plans)
        # evicts cached structures: the cache is the session's most
        # reclaimable memory.
        while self._governor.over_budget:
            victim = self._lru_victim()
            if victim is None:
                return  # everything left is pinned
            self._evict(victim)

    def _lru_victim(self) -> Optional[_CacheEntry]:
        for entry in self._entries.values():
            if entry.pins == 0:
                return entry
        return None

    def _evict(self, entry: _CacheEntry) -> None:
        self._stats.evictions += 1
        self._governor.release(entry.nbytes, TAG)
        del self._entries[entry.key]

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """A snapshot of the counters (safe to keep after cache changes)."""
        with self._lock:
            pinned = sum(1 for e in self._entries.values() if e.pins > 0)
            return CacheStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                bytes_in_use=self._governor.held(TAG),
                entries=len(self._entries),
                pinned_entries=pinned,
            )

    def metric_rows(self) -> List[Tuple]:
        """This cache's Prometheus rows: ``(name, help, kind, label
        names, [(label values, value), ...])``, from one snapshot."""
        s = self.stats()
        lookups = s.hits + s.misses
        return [
            ("repro_cache_hits_total", "Structure cache hits.",
             "counter", (), [((), s.hits)]),
            ("repro_cache_misses_total", "Structure cache misses.",
             "counter", (), [((), s.misses)]),
            ("repro_cache_evictions_total", "Structure cache evictions.",
             "counter", (), [((), s.evictions)]),
            ("repro_cache_bytes_in_use", "Bytes held by cached structures.",
             "gauge", (), [((), s.bytes_in_use)]),
            ("repro_cache_entries", "Cached structures.",
             "gauge", (), [((), s.entries)]),
            ("repro_cache_hit_ratio", "Lifetime structure-cache hit ratio.",
             "gauge", (), [((), s.hits / lookups if lookups else 0.0)]),
        ]

    def clear(self) -> None:
        """Drop every entry, including pinned ones."""
        with self._lock:
            for entry in self._entries.values():
                self._governor.release(entry.nbytes, TAG)
            self._entries.clear()

    def close(self) -> None:
        self.clear()

    def __enter__(self) -> "StructureCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _key_digest(key: Tuple) -> str:
    """A short stable fingerprint of a cache key for trace attributes
    (full keys embed array fingerprints and are unreadably long)."""
    import hashlib
    return hashlib.blake2b(repr(key).encode(),
                           digest_size=4).hexdigest()


#: Cache kinds whose builder chooses between a presence table and a tree
#: from its input: DISTINCT aggregates and DENSE_RANK.
_LAYOUT_KINDS = frozenset({"mst:distinct", "mst:distinct:sum",
                           "rangetree:dense"})


def annotate_layout(span: Any, kind: str, structure: Any) -> None:
    """Name on ``span``, the ``structure.build`` span that built
    ``structure``, the layout its builder chose: ``layout=table`` for a
    presence table, ``layout=tree`` otherwise. Other kinds have one
    layout and get no attribute."""
    if kind in _LAYOUT_KINDS:
        from repro.rangetree.dense import PresenceWords
        span.annotate(layout="table" if isinstance(structure, PresenceWords)
                      else "tree")


class StructureAcquirer:
    """Per-group handle the operator and the evaluators use to obtain
    the group's sort and structures.

    Composes full keys from a fixed prefix (the window-group key, built
    once by the operator) plus the entry kind and its configuration —
    input columns named by :meth:`column_key`, their content
    fingerprint — pins everything it hands out, and releases all pins
    in one call when the group's calls are done.

    With ``cache=None`` it degrades to calling the builder directly, so
    evaluators never branch on whether caching is enabled.

    An acquirer belongs to one group's evaluation, but the held-keys
    list is guarded by its own small lock all the same: acquire under
    the store lock, record under ours, release everything exactly once
    from the owning evaluation's ``finally``.
    """

    def __init__(self, cache: Optional[StructureCache],
                 prefix: Tuple, table: Any) -> None:
        self._cache = cache
        self._prefix = prefix
        self._table = table
        self._held: List[Tuple] = []
        self._held_lock = threading.Lock()

    def column_key(self, name: str) -> str:
        """How a key names the input column ``name`` of the group's
        ``table``: its content fingerprint (memoised on the column)."""
        from repro.cache.fingerprint import column_fingerprint
        return column_fingerprint(self._table.column(name))

    def acquire(self, kind: str, config: Tuple,
                builder: Callable[[], Any]) -> Any:
        if self._cache is None:
            return builder()
        key = self._prefix + (kind,) + tuple(config)
        tracer = current_context().tracer
        if tracer.enabled:
            # Wrap the builder so the trace distinguishes a fresh build
            # (a ``structure.build`` span, timed) from a cache hit (a
            # zero-duration ``structure.reuse`` event) per cache key.
            digest = _key_digest(key)
            built = [False]
            inner = builder

            def traced_builder() -> Any:
                built[0] = True
                with tracer.span("structure.build", kind=kind,
                                 key=digest) as span:
                    structure = inner()
                    annotate_layout(span, kind, structure)
                    return structure

            builder = traced_builder
            structure = self._cache.acquire(key, builder, pin=True)
            if not built[0]:
                tracer.event("structure.reuse", kind=kind, key=digest)
        else:
            structure = self._cache.acquire(key, builder, pin=True)
        with self._held_lock:
            self._held.append(key)
        return structure

    def release_all(self) -> None:
        if self._cache is None:
            return
        with self._held_lock:
            held, self._held = self._held, []
        for key in held:
            self._cache.release(key)
