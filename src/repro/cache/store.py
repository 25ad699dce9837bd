"""Thread-safe LRU structure store with pinning, budget and spill.

The cache maps canonical keys (built by :mod:`repro.cache.fingerprint`
plus a structure kind and per-call configuration) to live index
structures. Entries are charged real measured bytes (via
:mod:`repro.cache.budget`) against an optional global budget; when the
budget is exceeded the least-recently-used *unpinned* entries are
evicted — spilled to disk when :mod:`repro.cache.spill` can round-trip
them, dropped otherwise. A spilled entry keeps its slot (with a
near-zero charge) and transparently reloads on the next acquire.

Pinning exists because the window operator probes a partition's
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

from repro.cache.budget import MemoryBudget, structure_bytes
from repro.cache.spill import SpillManager, can_spill
from repro.errors import (
    CircuitOpenError,
    SpillCorruptionError,
    VerificationError,
)
from repro.resilience.context import current_context
from repro.resilience.verify import verify_structure

#: Residual charge for a spilled entry: key + path bookkeeping, not data.
_SPILLED_RESIDUAL_BYTES = 64


@dataclass
class CacheStats:
    """Counters exposed through ``EXPLAIN`` and the benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    reloads: int = 0
    corruptions: int = 0      # spilled entries that failed reload
    spill_failures: int = 0   # evictions degraded to drops by write errors
    spill_retries: int = 0    # transient-I/O retry attempts
    breaker_skips: int = 0    # spills/reloads skipped by an open breaker
    verifications: int = 0    # reload invariant checks run
    verify_failures: int = 0  # reloads rejected by invariant checks
    bytes_in_use: int = 0
    budget_bytes: Optional[int] = None
    entries: int = 0
    spilled_entries: int = 0
    pinned_entries: int = 0   # entries with pins > 0 (0 when quiescent)

    def render(self) -> List[str]:
        """Human-readable lines for ``EXPLAIN`` output."""
        budget = ("unlimited" if self.budget_bytes is None
                  else f"{self.budget_bytes:,} B")
        lines = [
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} spills={self.spills} "
            f"reloads={self.reloads}",
            f"entries={self.entries} ({self.spilled_entries} spilled, "
            f"{self.pinned_entries} pinned) "
            f"bytes={self.bytes_in_use:,} budget={budget}",
        ]
        if self.corruptions or self.spill_failures or self.spill_retries:
            lines.append(
                f"corruptions={self.corruptions} "
                f"spill_failures={self.spill_failures} "
                f"spill_retries={self.spill_retries}")
        if self.breaker_skips or self.verify_failures:
            lines.append(
                f"breaker_skips={self.breaker_skips} "
                f"verify_failures={self.verify_failures}")
        return lines


@dataclass
class _CacheEntry:
    key: Tuple
    structure: Any          # None while spilled out
    nbytes: int             # currently charged against the budget
    live_bytes: int         # measured size when resident
    pins: int = 0
    spill_path: Optional[str] = None
    spill_meta: Any = None

    @property
    def spilled(self) -> bool:
        return self.structure is None and self.spill_path is not None


class StructureCache:
    """LRU cache of window index structures.

    ``budget_bytes=None`` means unlimited (never evicts). ``spill=False``
    turns eviction into plain dropping even for spillable trees.
    """

    def __init__(self, budget_bytes: Optional[int] = None,
                 spill_dir: Optional[str] = None, spill: bool = True,
                 spill_retries: int = 2, spill_backoff: float = 0.01,
                 spill_sleep=None, verify_reload: bool = True,
                 governor=None) -> None:
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._budget = MemoryBudget(budget_bytes)
        #: Session MemoryGovernor (optional). Every byte charged against
        #: the private budget is mirrored into the session ledger under
        #: the ``structure_cache`` tag, and session-wide pressure drives
        #: eviction exactly like the private budget does.
        self._governor = governor
        self._spill_enabled = spill
        self._spill = SpillManager(spill_dir, max_retries=spill_retries,
                                   backoff=spill_backoff, sleep=spill_sleep)
        #: Run structural invariants on every reload: a bit-flip that
        #: survived the CRC (or a decoder bug) is caught at the trust
        #: boundary and answered by a rebuild, not a wrong result.
        self._verify_reload = verify_reload
        self._stats = CacheStats(budget_bytes=budget_bytes)

    # ------------------------------------------------------------------
    # acquire / release
    # ------------------------------------------------------------------
    def acquire(self, key: Tuple, builder: Callable[[], Any],
                pin: bool = True) -> Any:
        """Return the structure for ``key``, building it on first use.

        A hit moves the entry to the MRU end; a hit on a spilled entry
        reloads it from disk first (counted in ``stats().reloads``).
        With ``pin=True`` (the default) the entry is protected from
        eviction until a matching :meth:`release`.

        A spilled entry whose file fails its checksum (or cannot be read
        after retries) is *not* an error: the corrupt file is discarded,
        the slot dropped, and the structure rebuilt from source via
        ``builder`` — counted in ``stats().corruptions``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.spilled:
                self._entries.move_to_end(key)
                ctx = current_context()
                try:
                    # The fault site is inside the try so an injected
                    # OSError rides the same rebuild path a real one
                    # would.
                    ctx.fire("cache.reload")
                    entry.structure = self._spill.load(entry.spill_path,
                                                       entry.spill_meta)
                    if self._verify_reload:
                        self._stats.verifications += 1
                        try:
                            verify_structure(entry.structure)
                        except VerificationError:
                            self._stats.verify_failures += 1
                            ctx.record_verification(failed=True)
                            entry.structure = None
                            raise
                        ctx.record_verification()
                except (SpillCorruptionError, OSError,
                        VerificationError):
                    # Rebuild-on-corruption: drop the poisoned slot and
                    # fall through to the build path below.
                    self._stats.corruptions += 1
                    ctx.record_corruption()
                    self._spill.discard(entry.spill_path)
                    self._release(entry.nbytes)
                    del self._entries[key]
                    entry = None
                except CircuitOpenError:
                    # The spill.read breaker is open: skip the disk
                    # entirely and rebuild from source. Keep counters
                    # honest — this is degradation, not corruption.
                    self._stats.breaker_skips += 1
                    self._spill.discard(entry.spill_path)
                    self._release(entry.nbytes)
                    del self._entries[key]
                    entry = None
                else:
                    self._spill.discard(entry.spill_path)
                    entry.spill_path = None
                    entry.spill_meta = None
                    self._release(entry.nbytes)
                    entry.nbytes = entry.live_bytes
                    self._charge(entry.nbytes)
                    self._stats.reloads += 1
                    ctx.telemetry.count_cache_reload()
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                current_context().telemetry.count_cache_hit()
                if pin:
                    entry.pins += 1
                # Hold a local reference before re-running eviction: an
                # unpinned hit under a tight budget may spill this very
                # entry back out, nulling ``entry.structure``.
                structure = entry.structure
                self._evict_to_budget()
                return structure

            structure = builder()
            nbytes = structure_bytes(structure)
            entry = _CacheEntry(key=key, structure=structure, nbytes=nbytes,
                                live_bytes=nbytes, pins=1 if pin else 0)
            self._entries[key] = entry
            self._charge(nbytes)
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
    # byte accounting
    # ------------------------------------------------------------------
    def _charge(self, nbytes: int) -> None:
        self._budget.charge(nbytes)
        if self._governor is not None:
            self._governor.charge(nbytes, tag="structure_cache")

    def _release(self, nbytes: int) -> None:
        self._budget.release(nbytes)
        if self._governor is not None:
            self._governor.release(nbytes, tag="structure_cache")

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _over_any_budget(self) -> bool:
        if self._budget.over_budget:
            return True
        gov = self._governor
        # Session-wide pressure (queries reserving bytes elsewhere)
        # evicts cached structures too: the cache is the session's most
        # reclaimable memory.
        return gov is not None and gov.limited and gov.over_budget

    def _evict_to_budget(self) -> None:
        while self._over_any_budget():
            victim = self._lru_victim()
            if victim is None:
                return  # everything left is pinned or already spilled
            self._evict(victim)

    def _lru_victim(self) -> Optional[_CacheEntry]:
        for entry in self._entries.values():
            if entry.pins == 0 and not entry.spilled:
                return entry
        return None

    def _evict(self, entry: _CacheEntry) -> None:
        self._stats.evictions += 1
        if self._spill_enabled and can_spill(entry.structure):
            try:
                # Fault site first, so an injected OSError degrades the
                # eviction exactly like a real write failure.
                current_context().fire("cache.evict")
                path, meta = self._spill.spill(entry.structure)
            except OSError:
                # Spill writes kept failing: degrade the eviction to a
                # plain drop rather than failing the unrelated acquire
                # that triggered it. The structure rebuilds on next use.
                self._stats.spill_failures += 1
                self._release(entry.nbytes)
                del self._entries[entry.key]
                return
            except CircuitOpenError:
                # The spill.write breaker is open: drop instead of
                # queueing this eviction behind a dead disk.
                self._stats.breaker_skips += 1
                self._release(entry.nbytes)
                del self._entries[entry.key]
                return
            entry.spill_path = path
            entry.spill_meta = meta
            entry.structure = None
            self._release(entry.nbytes)
            entry.nbytes = _SPILLED_RESIDUAL_BYTES
            self._charge(entry.nbytes)
            self._stats.spills += 1
        else:
            self._release(entry.nbytes)
            del self._entries[entry.key]

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """A snapshot of the counters (safe to keep after cache changes)."""
        with self._lock:
            spilled = sum(1 for e in self._entries.values() if e.spilled)
            pinned = sum(1 for e in self._entries.values() if e.pins > 0)
            return CacheStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                spills=self._stats.spills,
                reloads=self._stats.reloads,
                corruptions=self._stats.corruptions,
                spill_failures=self._stats.spill_failures,
                spill_retries=self._spill.retries,
                breaker_skips=self._stats.breaker_skips,
                verifications=self._stats.verifications,
                verify_failures=self._stats.verify_failures,
                bytes_in_use=self._budget.used,
                budget_bytes=self._budget.total,
                entries=len(self._entries),
                spilled_entries=spilled,
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
            ("repro_cache_spills_total", "Structures spilled to disk.",
             "counter", (), [((), s.spills)]),
            ("repro_cache_reloads_total", "Structures reloaded from spill.",
             "counter", (), [((), s.reloads)]),
            ("repro_cache_bytes_in_use", "Bytes held by cached structures.",
             "gauge", (), [((), s.bytes_in_use)]),
            ("repro_cache_entries", "Cached structures, by residence.",
             "gauge", ("state",),
             [(("resident",), s.entries - s.spilled_entries),
              (("spilled",), s.spilled_entries)]),
            ("repro_cache_hit_ratio", "Lifetime structure-cache hit ratio.",
             "gauge", (), [((), s.hits / lookups if lookups else 0.0)]),
        ]

    def clear(self) -> None:
        """Drop every entry (including pinned ones) and spill files."""
        with self._lock:
            for entry in self._entries.values():
                self._release(entry.nbytes)
                if entry.spill_path is not None:
                    self._spill.discard(entry.spill_path)
            self._entries.clear()

    def close(self) -> None:
        self.clear()
        self._spill.close()

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


class StructureAcquirer:
    """Per-partition handle the evaluators use to obtain structures.

    Composes full keys from a fixed prefix (window-group fingerprint +
    partition index, built once by the operator) plus the structure kind
    and per-call configuration, pins everything it hands out, and
    releases all pins in one call when the partition's calls are done.

    With ``cache=None`` it degrades to calling the builder directly, so
    evaluators never branch on whether caching is enabled.

    An acquirer belongs to one partition's evaluation task, but under
    morsel scheduling that task may run on a pool thread while probe
    fan-out touches the view from others, so the held-keys list is
    guarded by its own small lock: acquire under the store lock, record
    under ours, release everything exactly once from the owning task's
    ``finally``.
    """

    def __init__(self, cache: Optional[StructureCache],
                 prefix: Tuple) -> None:
        self._cache = cache
        self._prefix = prefix
        self._held: List[Tuple] = []
        self._held_lock = threading.Lock()

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
                                 key=digest):
                    return inner()

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
