"""The session-wide memory governor: one byte ledger for everything.

Deadlines and the admission gateway govern *time* and
*concurrency*; the governor governs *bytes*. It is the session's only
byte ledger and ``memory_budget_bytes`` (``REPRO_MEMORY_BUDGET``) its
only budget:

* **reservations** — the executor estimates a query's working set from
  the tables it scans and reserves those bytes *before* gateway
  admission. Interactive queries reserve *softly* (they always run —
  overcommit is recorded as a pressure event and answered by the
  degradation ladder below); batch queries reserve *hard* — they wait
  in bounded clock slices for in-flight queries to release bytes and
  are shed with a typed :class:`~repro.errors.MemoryPressureError`
  (HTTP 503 + ``Retry-After`` on the wire) when the wait budget
  expires;
* **charges** — the structure cache and plan cache keep their bytes in
  the ledger and nowhere else (tagged ``structure_cache`` /
  ``plan_cache``, so the breakdown is visible in ``EXPLAIN`` /
  ``/v1/healthz``), and evict LRU entries while the session is over
  budget;
* **guards** — a single structure larger than the whole session budget
  raises :class:`~repro.errors.MemoryPressureError` from the build
  guard, which rides the existing ``FALLBACK_ERRORS`` ladder down to
  the naive evaluator instead of failing the query.

A budget moves nothing to disk: an evicted index structure is dropped
from the structure cache and rebuilt on its next use, which costs less
than writing it out and reading it back.

The degradation ladder under pressure, best outcome first::

    fits in budget        -> run in memory (fast paths, cached trees)
    cache over budget     -> evict LRU trees; rebuild on next use
    structure > budget    -> naive evaluators
    batch reservation wait
      expires             -> shed with MemoryPressureError (503)

Fault site ``memory.reserve`` fires on every reservation attempt so
chaos tests can inject pressure deterministically; waiting runs on the
active clock (a :class:`~repro.resilience.context.SimulatedClock`
completes waits instantly in tests).

The governor never *enforces* at the allocator level — CPython cannot —
it keeps an honest ledger of the measured/estimated bytes the engine
knows about and makes eviction/shedding decisions from it. Releasing
more bytes under a tag than the tag holds is an accounting bug and
raises instead of being clamped away.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MemoryPressureError

__all__ = ["MemoryGovernor", "MemoryReservation", "MemoryStats",
           "table_bytes"]

#: Granularity of hard-reservation waits, mirroring the gateway's
#: bounded queue slices: re-check the ledger (and the query's own
#: deadline/cancellation) every slice instead of blocking outright.
_WAIT_SLICE = 0.05

#: Default wait budget for hard (batch) reservations when the session
#: has no queue_timeout: long enough for a query ahead to finish,
#: short enough that batch pressure surfaces as a typed shed.
_DEFAULT_WAIT = 5.0


def table_bytes(table: Any) -> int:
    """Estimated resident bytes of a :class:`~repro.table.table.Table`.

    numpy-backed columns report exact ``nbytes`` (+1 byte/row for the
    validity mask); object-backed columns are charged a flat 64 bytes
    per value — consistent, which is all reservation estimates need.
    """
    import numpy as np

    total = 0
    for column in getattr(table, "columns", ()):
        values = column.raw()
        if isinstance(values, np.ndarray):
            total += int(values.nbytes)
        else:
            total += 64 * len(values)
        validity = column.validity
        if isinstance(validity, np.ndarray):
            total += int(validity.nbytes)
    return total


@dataclass
class MemoryStats:
    """A snapshot of the governor's ledger and counters."""

    budget_bytes: Optional[int] = None
    used_bytes: int = 0
    reserved_bytes: int = 0
    peak_bytes: int = 0
    reservations: int = 0
    releases: int = 0
    waits: int = 0            # hard reservations that had to park
    denials: int = 0          # hard reservations shed with 503
    pressure_events: int = 0  # soft overcommits past the budget
    structure_denials: int = 0  # builds refused (-> naive fallback)
    by_tag: Dict[str, int] = field(default_factory=dict)

    @property
    def eventful(self) -> bool:
        """Whether anything pressure-related happened (quiet-until-
        traffic rule for ``EXPLAIN``: a budgeted session always shows,
        an unbudgeted one only once pressure was recorded)."""
        return bool(self.budget_bytes is not None or self.denials
                    or self.pressure_events or self.structure_denials)

    def render(self) -> List[str]:
        """Human-readable lines for ``EXPLAIN`` / session stats."""
        budget = ("unlimited" if self.budget_bytes is None
                  else f"{self.budget_bytes:,} B")
        lines = [
            f"budget={budget} used={self.used_bytes:,} B "
            f"reserved={self.reserved_bytes:,} B "
            f"peak={self.peak_bytes:,} B",
            f"reservations={self.reservations} waits={self.waits} "
            f"denials={self.denials} pressure={self.pressure_events}",
        ]
        if self.structure_denials:
            lines.append(f"structure_denials={self.structure_denials}")
        if self.by_tag:
            held = " ".join(f"{tag}={nbytes:,}B"
                            for tag, nbytes in sorted(self.by_tag.items()))
            lines.append(f"held: {held}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "budget_bytes": self.budget_bytes,
            "used_bytes": self.used_bytes,
            "reserved_bytes": self.reserved_bytes,
            "peak_bytes": self.peak_bytes,
            "reservations": self.reservations,
            "releases": self.releases,
            "waits": self.waits,
            "denials": self.denials,
            "pressure_events": self.pressure_events,
            "structure_denials": self.structure_denials,
            "by_tag": dict(self.by_tag),
        }


class MemoryReservation:
    """A granted byte reservation; release exactly once (idempotent)."""

    __slots__ = ("_governor", "nbytes", "tag", "_released")

    def __init__(self, governor: "MemoryGovernor", nbytes: int,
                 tag: str) -> None:
        self._governor = governor
        self.nbytes = nbytes
        self.tag = tag
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._governor._release_reservation(self.nbytes, self.tag)

    def __enter__(self) -> "MemoryReservation":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class MemoryGovernor:
    """Session-wide byte ledger with reservations and backpressure.

    ``budget_bytes=None`` disables enforcement (the ledger still
    tracks usage and peak for observability).
    """

    def __init__(self, budget_bytes: Optional[int] = None,
                 clock: Any = None) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("memory budget must be non-negative")
        self.budget = budget_bytes
        self._clock = clock
        self._lock = threading.Lock()
        self._used = 0        # reservations + cache charges
        self._reserved = 0    # the reservation share of _used
        self._peak = 0
        self._by_tag: Dict[str, int] = {}
        self._stats = MemoryStats(budget_bytes=budget_bytes)

    # ------------------------------------------------------------------
    # ledger state
    # ------------------------------------------------------------------
    @property
    def limited(self) -> bool:
        return self.budget is not None

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    @property
    def over_budget(self) -> bool:
        """Whether the session ledger exceeds its budget (drives cache
        eviction). Unbudgeted, it answers without taking the lock."""
        if self.budget is None:
            return False
        with self._lock:
            return self._used > self.budget

    def held(self, tag: str) -> int:
        """Bytes the ledger holds under ``tag``."""
        with self._lock:
            return self._by_tag.get(tag, 0)

    # ------------------------------------------------------------------
    # reservations (queries)
    # ------------------------------------------------------------------
    def reserve(self, nbytes: int, tag: str = "query",
                hard: bool = False, wait_timeout: Optional[float] = None,
                ctx: Any = None) -> MemoryReservation:
        """Reserve ``nbytes`` against the budget before work starts.

        Soft reservations (interactive queries) always succeed; going
        past the budget is recorded as a pressure event and answered
        downstream by eviction / fallback, not by refusal. Hard
        reservations (batch queries) wait in ``_WAIT_SLICE`` clock
        slices — checkpointing ``ctx`` so deadlines and cancellation
        surface mid-wait — and raise
        :class:`~repro.errors.MemoryPressureError` when the wait budget
        expires (or when ``nbytes`` exceeds the whole session budget,
        which no wait can fix).

        Fires the ``memory.reserve`` fault site once per call."""
        nbytes = max(int(nbytes), 0)
        if ctx is not None:
            ctx.fire("memory.reserve")
        if self.budget is None:
            self._grant(nbytes, tag)
            return MemoryReservation(self, nbytes, tag)
        if hard and nbytes > self.budget:
            with self._lock:
                self._stats.denials += 1
            raise MemoryPressureError(
                f"reservation of {nbytes:,} bytes exceeds the session "
                f"memory budget of {self.budget:,} bytes",
                requested=nbytes, available=self.budget,
                retry_after=60.0)
        if not hard:
            pressured = self._grant(nbytes, tag)
            if pressured:
                with self._lock:
                    self._stats.pressure_events += 1
            return MemoryReservation(self, nbytes, tag)
        return self._reserve_hard(nbytes, tag, wait_timeout, ctx)

    def _reserve_hard(self, nbytes: int, tag: str,
                      wait_timeout: Optional[float],
                      ctx: Any) -> MemoryReservation:
        clock = self._resolve_clock(ctx)
        budget = wait_timeout if wait_timeout is not None else _DEFAULT_WAIT
        deadline = clock.monotonic() + budget
        waited = False
        while True:
            with self._lock:
                if self._used + nbytes <= self.budget:
                    self._grant_locked(nbytes, tag)
                    return MemoryReservation(self, nbytes, tag)
                if not waited:
                    waited = True
                    self._stats.waits += 1
            remaining = deadline - clock.monotonic()
            if remaining <= 0:
                with self._lock:
                    self._stats.denials += 1
                    available = max(self.budget - self._used, 0)
                raise MemoryPressureError(
                    f"batch reservation of {nbytes:,} bytes shed after "
                    f"{budget:.3g}s under memory pressure "
                    f"({available:,} of {self.budget:,} bytes free)",
                    requested=nbytes, available=available,
                    retry_after=max(budget, 1.0))
            clock.sleep(min(_WAIT_SLICE, remaining))
            if ctx is not None:
                ctx.checkpoint()

    def _resolve_clock(self, ctx: Any) -> Any:
        if ctx is not None and getattr(ctx, "clock", None) is not None:
            return ctx.clock
        if self._clock is not None:
            return self._clock
        from repro.resilience.context import SystemClock
        return SystemClock()

    def _grant(self, nbytes: int, tag: str) -> bool:
        with self._lock:
            return self._grant_locked(nbytes, tag)

    def _grant_locked(self, nbytes: int, tag: str) -> bool:
        self._charge_locked(nbytes, tag)
        self._reserved += nbytes
        self._stats.reservations += 1
        return self.budget is not None and self._used > self.budget

    def _charge_locked(self, nbytes: int, tag: str) -> None:
        self._used += nbytes
        self._by_tag[tag] = self._by_tag.get(tag, 0) + nbytes
        self._peak = max(self._peak, self._used)

    def _release_reservation(self, nbytes: int, tag: str) -> None:
        with self._lock:
            self._release_locked(nbytes, tag)
            self._reserved -= nbytes
            self._stats.releases += 1

    def _release_locked(self, nbytes: int, tag: str) -> None:
        held = self._by_tag.get(tag, 0)
        if nbytes > held:
            raise AssertionError(
                f"memory ledger: releasing {nbytes:,} bytes of {tag!r}, "
                f"which holds {held:,}")
        self._used -= nbytes
        if nbytes < held:
            self._by_tag[tag] = held - nbytes
        else:
            self._by_tag.pop(tag, None)

    # ------------------------------------------------------------------
    # charges (caches — never refused, they evict to repay)
    # ------------------------------------------------------------------
    def charge(self, nbytes: int, tag: str) -> None:
        """Charge ``nbytes`` held by a component to the ledger."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        with self._lock:
            self._charge_locked(nbytes, tag)

    def release(self, nbytes: int, tag: str) -> None:
        """Return ``nbytes`` charged under ``tag``; more than the tag
        holds raises ``AssertionError``."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        with self._lock:
            self._release_locked(nbytes, tag)

    # ------------------------------------------------------------------
    # guards
    # ------------------------------------------------------------------
    def guard_structure(self, kind: str, nbytes: int) -> None:
        """Refuse a single structure larger than the whole budget.

        Such a structure could never be held (the cache would evict the
        world and still not fit), so the build guard converts it into a
        :class:`~repro.errors.MemoryPressureError` — which the
        ``FALLBACK_ERRORS`` ladder routes to the naive evaluator, the
        same degradation an oversized ``max_structure_bytes`` takes."""
        if self.budget is None or nbytes <= self.budget:
            return
        with self._lock:
            self._stats.structure_denials += 1
        raise MemoryPressureError(
            f"structure {kind!r} of {nbytes:,} bytes exceeds the "
            f"session memory budget of {self.budget:,} bytes",
            requested=nbytes, available=self.budget)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> MemoryStats:
        with self._lock:
            return MemoryStats(
                budget_bytes=self.budget,
                used_bytes=self._used,
                reserved_bytes=self._reserved,
                peak_bytes=self._peak,
                reservations=self._stats.reservations,
                releases=self._stats.releases,
                waits=self._stats.waits,
                denials=self._stats.denials,
                pressure_events=self._stats.pressure_events,
                structure_denials=self._stats.structure_denials,
                by_tag=dict(self._by_tag),
            )

    def metric_rows(self) -> List[Tuple]:
        """Prometheus rows: ``(name, help, kind, label names, [(label
        values, value), ...])``, from one snapshot."""
        s = self.stats()
        return [
            ("repro_memory_budget_bytes",
             "Session memory budget (0 = unlimited).",
             "gauge", (), [((), s.budget_bytes or 0)]),
            ("repro_memory_used_bytes", "Bytes in the session ledger.",
             "gauge", (), [((), s.used_bytes)]),
            ("repro_memory_reserved_bytes",
             "Bytes held by query reservations.",
             "gauge", (), [((), s.reserved_bytes)]),
            ("repro_memory_peak_bytes",
             "High-water mark of the session ledger.",
             "gauge", (), [((), s.peak_bytes)]),
            ("repro_memory_reservations_total",
             "Query byte reservations granted.",
             "counter", (), [((), s.reservations)]),
            ("repro_memory_waits_total",
             "Batch reservations that waited for headroom.",
             "counter", (), [((), s.waits)]),
            ("repro_memory_denials_total",
             "Batch reservations shed under memory pressure.",
             "counter", (), [((), s.denials)]),
            ("repro_memory_pressure_events_total",
             "Soft reservations granted past the budget.",
             "counter", (), [((), s.pressure_events)]),
        ]
