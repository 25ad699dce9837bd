"""Concurrent query admission: slots, priority queues, load shedding.

Nothing in the engine bounded how many queries could build O(n log n)
index structures at once; under heavy concurrent traffic that turns
into memory blow-ups and convoy effects on the structure cache lock.
The :class:`QueryGateway` is the front door every
:class:`~repro.sql.session.Session` query passes through:

* a fixed number of **concurrency slots** (``max_concurrent``) bounds
  simultaneously executing queries;
* waiters park in per-priority-class FIFO **queues** — ``interactive``
  ahead of ``batch``, strictly: a batch query never takes a slot while
  an interactive query is waiting;
* each class's queue is **bounded** (``max_queue``); arrivals beyond it
  are shed immediately with a typed
  :class:`~repro.errors.QueryRejectedError` rather than stacking up
  unbounded latency;
* queue wait **cooperates with the query's guardrails**: an
  :class:`~repro.resilience.context.ExecutionContext` deadline that
  expires while queued raises
  :class:`~repro.errors.QueryTimeoutError`, a cancelled token raises
  :class:`~repro.errors.QueryCancelledError`, and the optional
  ``queue_timeout`` bound sheds the query with
  :class:`~repro.errors.QueryRejectedError` — all recorded in the
  context's :class:`~repro.resilience.context.HealthCounters`, so a
  query that never ran still leaves telemetry.

The wait loop re-checks the context in short slices so simulated-clock
deadlines surface promptly in tests; with a free slot the whole
admission is one lock round-trip. The ``gateway.admit`` fault site
fires on every admission attempt.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import QueryRejectedError
from repro.resilience.context import ExecutionContext, current_context

#: Priority classes in admission order: earlier wins a freed slot.
PRIORITIES = ("interactive", "batch")

#: Longest single condition wait; bounds how stale a simulated-clock
#: deadline check can get while parked in the queue.
_WAIT_SLICE = 0.05


@dataclass
class GatewayStats:
    """Admission counters, per class and overall (``EXPLAIN`` shows
    these next to the cache and health counters)."""

    max_concurrent: int = 0
    active: int = 0
    admitted: int = 0
    completed: int = 0
    queue_waits: int = 0      # admissions that had to park first
    shed: int = 0             # queue-full rejections
    queue_timeouts: int = 0   # bounded-wait expiries (also shed)
    queue_cancellations: int = 0
    queue_deadline_expiries: int = 0
    peak_active: int = 0
    peak_queued: int = 0
    admitted_by_class: Dict[str, int] = field(default_factory=dict)
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    queued_now: Dict[str, int] = field(default_factory=dict)

    def render(self) -> List[str]:
        lines = [
            f"slots={self.max_concurrent} active={self.active} "
            f"admitted={self.admitted} completed={self.completed}",
            f"queue_waits={self.queue_waits} shed={self.shed} "
            f"queue_timeouts={self.queue_timeouts} "
            f"cancelled_waiting={self.queue_cancellations}",
            f"peak_active={self.peak_active} peak_queued={self.peak_queued}",
        ]
        for cls in PRIORITIES:
            admitted = self.admitted_by_class.get(cls, 0)
            shed = self.shed_by_class.get(cls, 0)
            waiting = self.queued_now.get(cls, 0)
            if admitted or shed or waiting:
                lines.append(f"{cls}: admitted={admitted} shed={shed} "
                             f"waiting={waiting}")
        return lines


class _Waiter:
    __slots__ = ("ticket",)

    def __init__(self, ticket: int) -> None:
        self.ticket = ticket


class QueryGateway:
    """Semaphore-with-priorities admission controller.

    ``queue_timeout`` bounds how long a query may wait for a slot
    (None = wait as long as its own deadline allows); the timeout runs
    on ``clock`` so tests can expire it deterministically.
    """

    def __init__(self, max_concurrent: int = 4, max_queue: int = 16,
                 queue_timeout: Optional[float] = None,
                 clock=None) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        from repro.resilience.context import SystemClock
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self.clock = clock if clock is not None else SystemClock()
        self._cond = threading.Condition()
        self._active = 0
        self._queues: Dict[str, Deque[_Waiter]] = {
            cls: deque() for cls in PRIORITIES}
        self._next_ticket = 0
        self._stats = GatewayStats(max_concurrent=max_concurrent)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @contextmanager
    def admit(self, context: Optional[ExecutionContext] = None,
              priority: str = "interactive") -> Iterator[None]:
        """Hold a concurrency slot for the duration of the block.

        Raises :class:`~repro.errors.QueryRejectedError` when shed (queue
        full or bounded wait expired), or the context's own typed error
        when its deadline/token fires while queued."""
        self._acquire(context, priority)
        try:
            yield
        finally:
            self._release()

    def _acquire(self, context: Optional[ExecutionContext],
                 priority: str) -> None:
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority class {priority!r}; "
                             f"expected one of {PRIORITIES}")
        ctx = context if context is not None else current_context()
        ctx.fire("gateway.admit")
        wait_deadline = None
        if self.queue_timeout is not None:
            wait_deadline = self.clock.monotonic() + self.queue_timeout
        tracer = ctx.tracer
        entered = self.clock.monotonic()
        span = tracer.span("gateway.wait", priority=priority) \
            if tracer.enabled else None
        try:
            self._wait_for_slot(ctx, priority, wait_deadline)
        finally:
            waited = self.clock.monotonic() - entered
            ctx.telemetry.add_queue_wait(waited)
            if span is not None:
                span.__exit__(None, None, None)

    def _wait_for_slot(self, ctx: "ExecutionContext", priority: str,
                       wait_deadline: Optional[float]) -> None:
        with self._cond:
            queue = self._queues[priority]
            # A newcomer runs instantly only when nobody of its class is
            # ahead of it and a slot is free; otherwise it must queue —
            # and a full queue sheds it on the spot.
            instantly = not queue and self._runnable(priority)
            if not instantly and len(queue) >= self.max_queue:
                self._stats.shed += 1
                self._bump(self._stats.shed_by_class, priority)
                ctx.health.shed += 1
                raise QueryRejectedError(
                    f"gateway queue for class {priority!r} is full "
                    f"({self.max_queue} waiting); query shed",
                    priority=priority)
            waiter = _Waiter(self._next_ticket)
            self._next_ticket += 1
            queue.append(waiter)
            waited = False
            try:
                while not (self._head(priority) is waiter
                           and self._runnable(priority)):
                    waited = True
                    queued = sum(len(q) for q in self._queues.values())
                    self._stats.peak_queued = max(self._stats.peak_queued,
                                                  queued)
                    # Guardrails first: deadline expiry / cancellation
                    # while queued surface as their own typed errors.
                    try:
                        ctx.checkpoint()
                    except Exception:
                        self._note_guardrail_abort(ctx)
                        raise
                    if wait_deadline is not None and \
                            self.clock.monotonic() >= wait_deadline:
                        self._stats.queue_timeouts += 1
                        self._stats.shed += 1
                        self._bump(self._stats.shed_by_class, priority)
                        ctx.health.shed += 1
                        raise QueryRejectedError(
                            f"query waited longer than "
                            f"queue_timeout={self.queue_timeout}s for a "
                            f"slot (class {priority!r})", priority=priority)
                    self._cond.wait(self._wait_slice(ctx, wait_deadline))
            except BaseException:
                queue.remove(waiter)
                self._cond.notify_all()
                raise
            # Admitted: leave the queue, take a slot.
            queue.popleft()
            self._active += 1
            self._stats.active = self._active
            self._stats.peak_active = max(self._stats.peak_active,
                                          self._active)
            self._stats.admitted += 1
            self._bump(self._stats.admitted_by_class, priority)
            ctx.health.admitted += 1
            if waited:
                self._stats.queue_waits += 1
                ctx.health.queue_waits += 1

    def _release(self) -> None:
        with self._cond:
            self._active -= 1
            self._stats.active = self._active
            self._stats.completed += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # internals (all called under the condition lock)
    # ------------------------------------------------------------------
    def _head(self, priority: str) -> Optional[_Waiter]:
        queue = self._queues[priority]
        return queue[0] if queue else None

    def _runnable(self, priority: str) -> bool:
        """A ``priority``-class head may run: a slot is free and no
        strictly higher class has anyone waiting."""
        if self._active >= self.max_concurrent:
            return False
        for cls in PRIORITIES:
            if cls == priority:
                return True
            if self._queues[cls]:
                return False
        return False  # pragma: no cover - priority validated earlier

    def _wait_slice(self, ctx: ExecutionContext,
                    wait_deadline: Optional[float]) -> float:
        """How long to park before re-checking the guardrails."""
        slice_ = _WAIT_SLICE
        remaining = ctx.remaining()
        if remaining is not None:
            slice_ = min(slice_, max(remaining, 0.001))
        if wait_deadline is not None:
            left = wait_deadline - self.clock.monotonic()
            slice_ = min(slice_, max(left, 0.001))
        return slice_

    def _note_guardrail_abort(self, ctx: ExecutionContext) -> None:
        """Checkpoint raised while queued: split the stats by cause.

        The context's own health counters (timeouts / cancellations)
        were already bumped by ``checkpoint``; this records that the
        abort happened *in the queue*."""
        if ctx.token is not None and ctx.token.cancelled:
            self._stats.queue_cancellations += 1
        else:
            self._stats.queue_deadline_expiries += 1

    @staticmethod
    def _bump(counter: Dict[str, int], key: str) -> None:
        counter[key] = counter.get(key, 0) + 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> GatewayStats:
        """A consistent snapshot of the admission counters."""
        with self._cond:
            snap = GatewayStats(
                max_concurrent=self.max_concurrent,
                active=self._active,
                admitted=self._stats.admitted,
                completed=self._stats.completed,
                queue_waits=self._stats.queue_waits,
                shed=self._stats.shed,
                queue_timeouts=self._stats.queue_timeouts,
                queue_cancellations=self._stats.queue_cancellations,
                queue_deadline_expiries=self._stats.queue_deadline_expiries,
                peak_active=self._stats.peak_active,
                peak_queued=self._stats.peak_queued,
                admitted_by_class=dict(self._stats.admitted_by_class),
                shed_by_class=dict(self._stats.shed_by_class),
                queued_now={cls: len(q)
                            for cls, q in self._queues.items()})
            return snap

    def metric_rows(self) -> List[Tuple]:
        """Prometheus rows: ``(name, help, kind, label names, [(label
        values, value), ...])``, from one snapshot."""
        s = self.stats()

        def by_class(counts: Dict[str, int]) -> List[Tuple]:
            return [((cls,), counts.get(cls, 0)) for cls in PRIORITIES]

        return [
            ("repro_gateway_active", "Queries currently executing.",
             "gauge", (), [((), s.active)]),
            ("repro_gateway_queued",
             "Queries parked in the admission queue.",
             "gauge", ("priority",), by_class(s.queued_now)),
            ("repro_gateway_admitted_total", "Queries admitted.",
             "counter", ("priority",), by_class(s.admitted_by_class)),
            ("repro_gateway_shed_total", "Queries shed.",
             "counter", ("priority",), by_class(s.shed_by_class)),
        ]
