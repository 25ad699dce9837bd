"""Per-resource circuit breakers around structure builds.

A long-lived serving process under concurrent traffic must not let a
failing backend (a full disk, a poisoned build path) drag every query
through the same slow failure: after ``failure_threshold`` consecutive
failures a :class:`CircuitBreaker` *trips* and subsequent calls fail
fast with a typed :class:`~repro.errors.CircuitOpenError` instead of
attempting the operation. Because the protected resource has a
degraded alternative — structure builds fall back to the baseline
evaluators — an open breaker reroutes work, it never fails a query on
its own.

State machine (the classic three states):

* **closed** — calls pass through; consecutive failures are counted and
  reset on any success.
* **open** — calls raise :class:`~repro.errors.CircuitOpenError`
  immediately, until ``reset_timeout`` has elapsed on the breaker's
  clock.
* **half-open** — after the timeout one *probe* call is let through
  (the ``circuit.probe`` fault site fires on it, so recovery is
  testable); success closes the breaker, failure re-opens it for
  another full timeout. While a probe is in flight, other callers keep
  failing fast — but a probe whose outcome is never reported (e.g. the
  probing query timed out) blocks recovery only until another
  ``reset_timeout`` elapses, after which the next caller probes again.

Breakers are shared session-wide (all queries of a
:class:`~repro.sql.session.Session` see the same
:class:`BreakerRegistry` via their
:class:`~repro.resilience.context.ExecutionContext`), so one query's
failures protect the next query from the same broken resource. All
state transitions happen under one lock; the closed-path overhead is a
lock acquisition and two integer updates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CircuitOpenError

#: The three breaker states, as strings for easy assertion and display.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class BreakerStats:
    """A consistent snapshot of one breaker's counters."""

    name: str
    state: str
    consecutive_failures: int
    failures: int            # total recorded failures
    successes: int           # total recorded successes
    trips: int               # closed/half-open -> open transitions
    short_circuits: int      # calls rejected while open
    probes: int              # half-open probe calls admitted
    recoveries: int          # half-open -> closed transitions

    def render(self) -> str:
        return (f"{self.name}: {self.state} "
                f"(failures={self.failures} trips={self.trips} "
                f"short_circuits={self.short_circuits} "
                f"probes={self.probes} recoveries={self.recoveries})")


class CircuitBreaker:
    """One resource's failure budget and fail-fast switch.

    ``clock`` must expose ``monotonic()`` (the resilience layer's
    pluggable clock protocol), so breaker timeouts are as simulatable
    as query deadlines.
    """

    def __init__(self, name: str, failure_threshold: int = 5,
                 reset_timeout: float = 30.0, clock=None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        from repro.resilience.context import SystemClock
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probe_at: Optional[float] = None  # probe admission time
        self._failures = 0
        self._successes = 0
        self._trips = 0
        self._short_circuits = 0
        self._probes = 0
        self._recoveries = 0

    # ------------------------------------------------------------------
    # the three verbs
    # ------------------------------------------------------------------
    def allow(self) -> None:
        """Admit one call, or raise :class:`CircuitOpenError`.

        In the half-open window this admits exactly one probe per
        ``reset_timeout``; the probe fires the ``circuit.probe`` fault
        site so tests can fail the recovery path deterministically.
        """
        probe = False
        with self._lock:
            if self._state == CLOSED:
                return
            now = self.clock.monotonic()
            if self._state == OPEN:
                if now - self._opened_at < self.reset_timeout:
                    self._short_circuits += 1
                    raise CircuitOpenError(
                        self.name,
                        retry_after=self.reset_timeout
                        - (now - self._opened_at))
                self._state = HALF_OPEN
                self._probe_at = None
            # HALF_OPEN: one probe at a time; a probe whose outcome was
            # lost stops blocking after another reset_timeout.
            if self._probe_at is not None \
                    and now - self._probe_at < self.reset_timeout:
                self._short_circuits += 1
                raise CircuitOpenError(
                    self.name,
                    retry_after=self.reset_timeout - (now - self._probe_at))
            self._probe_at = now
            self._probes += 1
            probe = True
        if probe:
            # Outside the lock: the fault injector may raise.
            from repro.resilience.context import current_context
            current_context().fire("circuit.probe")

    def record_success(self) -> None:
        """The admitted call succeeded; half-open success closes."""
        with self._lock:
            self._successes += 1
            self._consecutive = 0
            if self._state != CLOSED:
                self._state = CLOSED
                self._probe_at = None
                self._recoveries += 1

    def record_failure(self) -> bool:
        """The admitted call failed; returns True if this call tripped
        the breaker (closed -> open or half-open -> open)."""
        with self._lock:
            self._failures += 1
            self._consecutive += 1
            if self._state == HALF_OPEN or (
                    self._state == CLOSED
                    and self._consecutive >= self.failure_threshold):
                self._state = OPEN
                self._opened_at = self.clock.monotonic()
                self._probe_at = None
                self._trips += 1
                return True
            return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed open timeout."""
        with self._lock:
            if self._state == OPEN and (self.clock.monotonic()
                                        - self._opened_at
                                        >= self.reset_timeout):
                return HALF_OPEN
            return self._state

    def snapshot(self) -> BreakerStats:
        with self._lock:
            state = self._state
            if state == OPEN and (self.clock.monotonic() - self._opened_at
                                  >= self.reset_timeout):
                state = HALF_OPEN
            return BreakerStats(
                name=self.name, state=state,
                consecutive_failures=self._consecutive,
                failures=self._failures, successes=self._successes,
                trips=self._trips, short_circuits=self._short_circuits,
                probes=self._probes, recoveries=self._recoveries)

    def reset(self) -> None:
        """Force the breaker closed (administrative override)."""
        with self._lock:
            self._state = CLOSED
            self._consecutive = 0
            self._probe_at = None


class BreakerRegistry:
    """The session's breakers, one per protected resource, lazily made.

    The wired resource is ``structure.build`` (matching the
    fault-injection site of the same name); :meth:`get` creates others
    on demand with the registry's defaults
    so new seams need no registration step.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 30.0, clock=None) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name, failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout, clock=self.clock)
                self._breakers[name] = breaker
            return breaker

    def snapshots(self) -> List[BreakerStats]:
        with self._lock:
            breakers = list(self._breakers.values())
        return [b.snapshot() for b in breakers]

    def metric_rows(self) -> List[Tuple]:
        """Prometheus rows: ``(name, help, kind, label names, [(label
        values, value), ...])``, one series per breaker seen so far."""
        states = {"closed": 0, "open": 1, "half-open": 2}
        snaps = self.snapshots()
        return [
            ("repro_breaker_state",
             "Breaker state (0 closed, 1 open, 2 half-open).",
             "gauge", ("resource",),
             [((s.name,), states.get(s.state, -1)) for s in snaps]),
            ("repro_breaker_trips_total", "Breaker trips.",
             "counter", ("resource",),
             [((s.name,), s.trips) for s in snaps]),
        ]

    def reset_all(self) -> None:
        """Administratively close every breaker (the operator fixed the
        underlying resource and wants traffic restored now)."""
        with self._lock:
            breakers = list(self._breakers.values())
        for breaker in breakers:
            breaker.reset()

    def render(self) -> List[str]:
        """Human-readable lines for ``EXPLAIN`` (touched breakers only)."""
        return [snap.render() for snap in self.snapshots()
                if snap.failures or snap.successes or snap.short_circuits]
