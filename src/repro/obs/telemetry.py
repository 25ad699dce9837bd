"""Per-query scalar telemetry: cache and queue counts.

Where :mod:`repro.obs.trace` records *when* things happened,
:class:`QueryTelemetry` records *how many* — cheap enough to stay on
even when tracing is off. One instance rides on every
:class:`~repro.resilience.context.ExecutionContext`; the cache store
and the gateway increment it through ``current_context().telemetry``,
and :class:`~repro.sql.result.QueryStats` snapshots it when the query
returns. Counters take a small lock because the ambient context (and
so its telemetry) is shared by every thread that runs outside a
query.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

__all__ = ["QueryTelemetry"]


class QueryTelemetry:
    """Thread-safe per-query counters (see module docstring)."""

    __slots__ = ("_lock", "cache_hits", "cache_misses", "structure_builds",
                 "queue_wait_seconds")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.structure_builds = 0
        self.queue_wait_seconds = 0.0

    # ------------------------------------------------------------------
    # increments (called from the instrumented layers)
    # ------------------------------------------------------------------
    def count_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def count_cache_miss(self) -> None:
        with self._lock:
            self.cache_misses += 1

    def count_structure_build(self) -> None:
        with self._lock:
            self.structure_builds += 1

    def add_queue_wait(self, seconds: float) -> None:
        with self._lock:
            self.queue_wait_seconds += max(float(seconds), 0.0)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def structure_reuses(self) -> int:
        """Structure reuses are exactly the cache hits."""
        return self.cache_hits

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "structure_builds": self.structure_builds,
                "structure_reuses": self.cache_hits,
                "queue_wait_seconds": self.queue_wait_seconds,
            }
