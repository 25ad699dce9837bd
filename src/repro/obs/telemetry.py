"""Per-query scalar telemetry: cache, queue and scheduler counts.

Where :mod:`repro.obs.trace` records *when* things happened,
:class:`QueryTelemetry` records *how many* — cheap enough to stay on
even when tracing is off. One instance rides on every
:class:`~repro.resilience.context.ExecutionContext`; the cache store,
gateway and scheduler increment it through
``current_context().telemetry``, and
:class:`~repro.sql.result.QueryStats` snapshots it when the query
returns. Counters take a small lock because morsel tasks on pool
threads share the query's context.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

__all__ = ["QueryTelemetry"]


class QueryTelemetry:
    """Thread-safe per-query counters (see module docstring)."""

    __slots__ = ("_lock", "cache_hits", "cache_misses", "structure_builds",
                 "queue_wait_seconds", "morsels", "strategies")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.structure_builds = 0
        self.queue_wait_seconds = 0.0
        self.morsels = 0
        #: Per window group, the scheduler strategy chosen (in order).
        self.strategies: List[str] = []

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

    def add_morsels(self, count: int) -> None:
        with self._lock:
            self.morsels += int(count)

    def record_strategy(self, strategy: str) -> None:
        with self._lock:
            self.strategies.append(strategy)

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
                "morsels": self.morsels,
                "strategies": list(self.strategies),
            }
