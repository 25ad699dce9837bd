"""Per-query execution guardrails: deadline, cancellation, limits.

A production window service cannot let one query hang a worker or blow
the process: every query runs under an :class:`ExecutionContext` that
carries a deadline (on a pluggable, simulatable clock), a cooperative
:class:`CancellationToken`, per-query :class:`ResourceLimits` and a
:class:`~repro.resilience.faults.FaultInjector`. The executor, the
window operator and every evaluator loop call
:meth:`ExecutionContext.checkpoint` at batch boundaries; an expired
deadline or a set token surfaces as a typed
:class:`~repro.errors.QueryTimeoutError` /
:class:`~repro.errors.QueryCancelledError` within one batch.

The active context travels in thread-local storage (``activate`` /
``current_context``) so deep evaluator code needs no extra parameters.
With no deadline, token, limits or faults the ambient context's
checkpoint is a single attribute test — the guardrails cost nothing
when unused.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
)
from repro.obs import NULL_TRACER, QueryTelemetry
from repro.resilience.faults import NO_FAULTS, FaultInjector


class SystemClock:
    """Wall-clock time source (monotonic) with real sleeping."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class SimulatedClock:
    """A manually advanced clock for deterministic deadline tests.

    ``sleep`` advances the clock instead of blocking, so backoff loops
    complete instantly under test while still "taking" simulated time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += float(seconds)


class CancellationToken:
    """Thread-safe cooperative cancellation flag."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


@dataclass(frozen=True)
class ResourceLimits:
    """Per-query resource ceilings (None = unlimited).

    ``max_rows`` bounds the cardinality of any relation the executor
    materialises (a hard error); ``max_structure_bytes`` bounds the
    measured size of a single window index structure — exceeding it is
    *not* fatal: the operator degrades to the matching baseline
    evaluator instead.
    """

    max_rows: Optional[int] = None
    max_structure_bytes: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return self.max_rows is None and self.max_structure_bytes is None


NO_LIMITS = ResourceLimits()


@dataclass
class HealthCounters:
    """Per-query (and per-session, via merge) guardrail telemetry."""

    timeouts: int = 0
    cancellations: int = 0
    fallbacks: int = 0        # evaluator downgrades to a baseline
    faults: int = 0           # injected faults that actually fired
    limit_hits: int = 0       # resource-limit violations
    admitted: int = 0         # queries admitted through the gateway
    queue_waits: int = 0      # admissions that had to park in a queue
    shed: int = 0             # gateway rejections (queue full / timed out)
    breaker_trips: int = 0          # circuit breakers tripped open
    breaker_short_circuits: int = 0  # calls rejected by an open breaker
    verifications: int = 0          # shadow checks run
    verification_failures: int = 0  # checks that found divergence
    downgrades: List[str] = field(default_factory=list)

    def merge(self, other: "HealthCounters") -> None:
        self.timeouts += other.timeouts
        self.cancellations += other.cancellations
        self.fallbacks += other.fallbacks
        self.faults += other.faults
        self.limit_hits += other.limit_hits
        self.admitted += other.admitted
        self.queue_waits += other.queue_waits
        self.shed += other.shed
        self.breaker_trips += other.breaker_trips
        self.breaker_short_circuits += other.breaker_short_circuits
        self.verifications += other.verifications
        self.verification_failures += other.verification_failures
        for entry in other.downgrades:
            if entry not in self.downgrades:
                self.downgrades.append(entry)

    @property
    def eventful(self) -> bool:
        """Whether anything worth showing happened.

        Routine admissions (``admitted`` / ``queue_waits`` /
        ``verifications``) are excluded: a healthy session that merely
        ran queries through the gateway stays quiet in ``EXPLAIN``.
        """
        return bool(self.timeouts or self.cancellations
                    or self.fallbacks or self.faults
                    or self.limit_hits or self.shed or self.breaker_trips
                    or self.breaker_short_circuits
                    or self.verification_failures)

    def render(self) -> List[str]:
        """Human-readable lines for ``EXPLAIN`` / session stats."""
        lines = [
            f"timeouts={self.timeouts} cancellations={self.cancellations} "
            f"fallbacks={self.fallbacks}",
            f"faults={self.faults} limit_hits={self.limit_hits}",
        ]
        if self.admitted or self.shed or self.queue_waits:
            lines.append(
                f"admitted={self.admitted} queue_waits={self.queue_waits} "
                f"shed={self.shed}")
        if self.breaker_trips or self.breaker_short_circuits:
            lines.append(
                f"breaker_trips={self.breaker_trips} "
                f"breaker_short_circuits={self.breaker_short_circuits}")
        if self.verifications or self.verification_failures:
            lines.append(
                f"verifications={self.verifications} "
                f"verification_failures={self.verification_failures}")
        for entry in self.downgrades:
            lines.append(f"fallback: {entry}")
        return lines


class ExecutionContext:
    """Everything one query's execution is allowed to do.

    ``timeout`` is seconds from construction (on ``clock``); ``deadline``
    is an absolute monotonic timestamp and wins if both are given.
    """

    def __init__(self, timeout: Optional[float] = None,
                 deadline: Optional[float] = None,
                 token: Optional[CancellationToken] = None,
                 limits: Optional[ResourceLimits] = None,
                 faults: Optional[FaultInjector] = None,
                 clock: Optional[SystemClock] = None,
                 breakers=None,
                 verify_rate: float = 0.0,
                 verify_seed: int = 0,
                 tracer=None,
                 memory=None) -> None:
        self.clock = clock if clock is not None else SystemClock()
        if deadline is None and timeout is not None:
            deadline = self.clock.monotonic() + timeout
        self.deadline = deadline
        self.token = token
        self.limits = limits if limits is not None else NO_LIMITS
        self.faults = faults if faults is not None else NO_FAULTS
        #: Session-wide circuit breakers (a
        #: :class:`~repro.resilience.circuit.BreakerRegistry`), or None
        #: when the query runs unprotected.
        self.breakers = breakers
        #: Session-wide byte ledger (a
        #: :class:`~repro.resilience.memory.MemoryGovernor`), or None
        #: when the query runs ungoverned. The build guard enforces it.
        self.memory = memory
        if not 0.0 <= verify_rate <= 1.0:
            raise ValueError("verify_rate must be in [0, 1]")
        #: Fraction of evaluator calls shadow-verified against the naive
        #: oracle (0 disables; the disabled path is one attribute test).
        self.verify_rate = verify_rate
        self.verify_seed = verify_seed
        self._verify_counter = 0
        self.health = HealthCounters()
        #: Per-query span recorder (:class:`~repro.obs.trace.Tracer`);
        #: the shared no-op :data:`~repro.obs.trace.NULL_TRACER` when
        #: tracing is off, so hot paths guard with ``tracer.enabled``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per-query scalar counters (cache, queue);
        #: always live — cheap enough to never turn off.
        self.telemetry = QueryTelemetry()
        self._refresh_armed()

    def _refresh_armed(self) -> None:
        # Faults fire through ``fire()`` and need no checkpoint arming.
        self._armed = self.deadline is not None or self.token is not None

    # ------------------------------------------------------------------
    # cooperative checks
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Raise the typed guardrail error if the query must stop.

        Called at batch boundaries throughout the stack; the unarmed
        fast path is one attribute test.
        """
        if not self._armed:
            return
        if self.token is not None and self.token.cancelled:
            self.health.cancellations += 1
            raise QueryCancelledError("query cancelled")
        if self.deadline is not None \
                and self.clock.monotonic() > self.deadline:
            self.health.timeouts += 1
            raise QueryTimeoutError(
                f"query exceeded its deadline "
                f"(remaining={self.remaining()!r}s)")

    def tick(self, i: int) -> None:
        """Strided checkpoint for per-row loops.

        Checks the guardrails every 1024th iteration (and on the first),
        so a million-row naive fallback loop stays interruptible without
        paying a clock read per row."""
        if self._armed and (i & 1023) == 0:
            self.checkpoint()

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (negative if past), or None."""
        if self.deadline is None:
            return None
        return self.deadline - self.clock.monotonic()

    def guard_rows(self, n: int) -> None:
        """Enforce ``limits.max_rows`` against a materialised relation."""
        limit = self.limits.max_rows
        if limit is not None and n > limit:
            self.health.limit_hits += 1
            raise ResourceLimitError(
                f"relation of {n} rows exceeds max_rows={limit}")

    def guard_structure_bytes(self, kind: str, nbytes: int) -> None:
        """Enforce ``limits.max_structure_bytes`` on one built structure."""
        limit = self.limits.max_structure_bytes
        if limit is not None and nbytes > limit:
            self.health.limit_hits += 1
            raise ResourceLimitError(
                f"structure {kind!r} of {nbytes} bytes exceeds "
                f"max_structure_bytes={limit}")

    def fire(self, site: str) -> None:
        """Fire the fault injector at ``site``, counting real firings."""
        try:
            self.faults.fire(site)
        except BaseException:
            self.health.faults += 1
            raise

    def record_fallback(self, description: str) -> None:
        """Count one evaluator downgrade (dedup'd in the description log)."""
        self.health.fallbacks += 1
        if description not in self.health.downgrades:
            self.health.downgrades.append(description)

    # ------------------------------------------------------------------
    # circuit breakers and verification
    # ------------------------------------------------------------------
    def breaker(self, name: str):
        """The session's breaker for ``name``, or None when unwired."""
        if self.breakers is None:
            return None
        return self.breakers.get(name)

    def shadow_sample(self) -> bool:
        """Deterministically decide whether to shadow-verify this call.

        Hashes ``(verify_seed, running counter)`` into [0, 1) and
        compares against ``verify_rate``, so the same session re-run
        samples the same calls — a divergence found once is found
        every run. At rate 0 this is a single comparison.
        """
        if self.verify_rate <= 0.0:
            return False
        counter = self._verify_counter
        self._verify_counter += 1
        if self.verify_rate >= 1.0:
            return True
        mixed = ((self.verify_seed * 1_000_003 + counter)
                 * 2_654_435_761) % (2 ** 32)
        return mixed / 2 ** 32 < self.verify_rate

    def record_verification(self, failed: bool = False) -> None:
        """Count one shadow check (and its outcome)."""
        self.health.verifications += 1
        if failed:
            self.health.verification_failures += 1


#: Process-wide fallback context: no deadline, no token, no limits.
AMBIENT = ExecutionContext()

_active = threading.local()


def current_context() -> ExecutionContext:
    """The context of the query running on this thread (or AMBIENT)."""
    ctx = getattr(_active, "ctx", None)
    return ctx if ctx is not None else AMBIENT


@contextmanager
def activate(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Install ``ctx`` as this thread's active context for the block."""
    previous = getattr(_active, "ctx", None)
    _active.ctx = ctx
    try:
        yield ctx
    finally:
        _active.ctx = previous
