"""Admission control: slots, priority queues, shedding, queue guardrails.

The gateway is the session's front door; these tests pin down its
contract: ``max_concurrent`` truly bounds simultaneous execution,
``interactive`` strictly outranks ``batch`` for freed slots, arrivals
beyond ``max_queue`` shed immediately with a typed
:class:`~repro.errors.QueryRejectedError`, and a queued query's own
guardrails (deadline, cancellation token, bounded queue wait) fire
*while waiting* — a query that never ran still leaves telemetry.
"""

import threading
import time

import pytest

from conftest import make_window_table
from repro import Catalog, Session, SessionConfig
from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
)
from repro.resilience import (
    CancellationToken,
    ExecutionContext,
    FaultInjector,
    SimulatedClock,
)
from repro.resilience.gateway import QueryGateway


class AdvancingClock(SimulatedClock):
    """Advances on every read, so queue waits expire without real time."""

    def __init__(self, step=1.0):
        super().__init__()
        self._step = step

    def monotonic(self):
        value = super().monotonic()
        self.advance(self._step)
        return value


def _start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_free_slot_admits_immediately():
    gateway = QueryGateway(max_concurrent=2)
    with gateway.admit():
        with gateway.admit():
            stats = gateway.stats()
            assert stats.active == 2
            assert stats.queue_waits == 0
    stats = gateway.stats()
    assert stats.active == 0
    assert stats.admitted == 2
    assert stats.completed == 2
    assert stats.peak_active == 2


def test_unknown_priority_rejected():
    gateway = QueryGateway()
    with pytest.raises(ValueError):
        with gateway.admit(priority="background"):
            pass


def test_ctor_validation():
    with pytest.raises(ValueError):
        QueryGateway(max_concurrent=0)
    with pytest.raises(ValueError):
        QueryGateway(max_queue=-1)


def test_max_concurrent_bounds_parallel_execution():
    gateway = QueryGateway(max_concurrent=2, max_queue=16)
    active = []
    peak = []
    lock = threading.Lock()
    barrier = threading.Barrier(6)

    def run():
        barrier.wait()
        with gateway.admit():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.02)
            with lock:
                active.pop()

    threads = [_start(run) for _ in range(6)]
    for thread in threads:
        thread.join(timeout=10)
    assert max(peak) <= 2
    stats = gateway.stats()
    assert stats.admitted == 6
    assert stats.queue_waits >= 4
    assert stats.peak_active <= 2


def test_interactive_strictly_outranks_batch():
    gateway = QueryGateway(max_concurrent=1, max_queue=16)
    order = []
    release = threading.Event()
    occupant_in = threading.Event()

    def occupant():
        with gateway.admit():
            occupant_in.set()
            release.wait(timeout=10)

    def waiter(priority, name):
        with gateway.admit(priority=priority):
            order.append(name)

    occ = _start(occupant)
    occupant_in.wait(timeout=10)
    # Batch queues first, interactive afterwards — interactive must
    # still win the freed slot.
    batch = _start(lambda: waiter("batch", "batch"))
    while not gateway.stats().queued_now.get("batch"):
        time.sleep(0.001)
    interactive = _start(lambda: waiter("interactive", "interactive"))
    while not gateway.stats().queued_now.get("interactive"):
        time.sleep(0.001)
    release.set()
    for thread in (occ, batch, interactive):
        thread.join(timeout=10)
    assert order == ["interactive", "batch"]


# ----------------------------------------------------------------------
# shedding
# ----------------------------------------------------------------------
def test_full_queue_sheds_with_typed_error():
    gateway = QueryGateway(max_concurrent=1, max_queue=0)
    occupant_in = threading.Event()
    release = threading.Event()

    def occupant():
        with gateway.admit():
            occupant_in.set()
            release.wait(timeout=10)

    thread = _start(occupant)
    occupant_in.wait(timeout=10)
    ctx = ExecutionContext()
    with pytest.raises(QueryRejectedError) as info:
        with gateway.admit(ctx, priority="batch"):
            pass
    assert info.value.priority == "batch"
    assert ctx.health.shed == 1
    stats = gateway.stats()
    assert stats.shed == 1
    assert stats.shed_by_class == {"batch": 1}
    release.set()
    thread.join(timeout=10)
    # The slot freed: a new arrival is admitted normally.
    with gateway.admit():
        pass


def test_zero_queue_with_free_slot_still_admits():
    gateway = QueryGateway(max_concurrent=1, max_queue=0)
    with gateway.admit():
        pass
    assert gateway.stats().shed == 0


def test_queue_timeout_sheds_on_the_gateway_clock():
    clock = AdvancingClock(step=1.0)
    gateway = QueryGateway(max_concurrent=1, max_queue=4,
                           queue_timeout=5.0, clock=clock)
    occupant_in = threading.Event()
    release = threading.Event()

    def occupant():
        with gateway.admit():
            occupant_in.set()
            release.wait(timeout=10)

    thread = _start(occupant)
    occupant_in.wait(timeout=10)
    ctx = ExecutionContext()
    with pytest.raises(QueryRejectedError) as info:
        with gateway.admit(ctx):
            pass
    assert "queue_timeout" in str(info.value)
    stats = gateway.stats()
    assert stats.queue_timeouts == 1
    assert stats.shed == 1
    assert ctx.health.shed == 1
    release.set()
    thread.join(timeout=10)


# ----------------------------------------------------------------------
# guardrails while queued
# ----------------------------------------------------------------------
def test_deadline_expires_while_queued():
    clock = AdvancingClock(step=1.0)
    gateway = QueryGateway(max_concurrent=1, clock=clock)
    occupant_in = threading.Event()
    release = threading.Event()

    def occupant():
        with gateway.admit():
            occupant_in.set()
            release.wait(timeout=10)

    thread = _start(occupant)
    occupant_in.wait(timeout=10)
    ctx = ExecutionContext(timeout=3.0, clock=clock)
    with pytest.raises(QueryTimeoutError):
        with gateway.admit(ctx):
            pass
    assert ctx.health.timeouts == 1
    assert gateway.stats().queue_deadline_expiries == 1
    release.set()
    thread.join(timeout=10)
    # The dead waiter left the queue; the gateway still works.
    with gateway.admit():
        assert gateway.stats().active == 1


def test_cancellation_while_queued_records_and_unblocks():
    gateway = QueryGateway(max_concurrent=1)
    occupant_in = threading.Event()
    release = threading.Event()
    token = CancellationToken()
    ctx = ExecutionContext(token=token)
    outcome = []

    def occupant():
        with gateway.admit():
            occupant_in.set()
            release.wait(timeout=10)

    def cancelled_waiter():
        try:
            with gateway.admit(ctx):
                outcome.append("ran")
        except QueryCancelledError:
            outcome.append("cancelled")

    occ = _start(occupant)
    occupant_in.wait(timeout=10)
    waiter = _start(cancelled_waiter)
    while not gateway.stats().queued_now.get("interactive"):
        time.sleep(0.001)
    token.cancel()
    waiter.join(timeout=10)
    assert outcome == ["cancelled"]
    assert ctx.health.cancellations == 1
    stats = gateway.stats()
    assert stats.queue_cancellations == 1
    assert stats.queued_now.get("interactive", 0) == 0
    release.set()
    occ.join(timeout=10)
    # The abandoned ticket must not wedge later admissions.
    with gateway.admit():
        pass


def test_gateway_admit_fault_site_fires():
    faults = FaultInjector().plan("gateway.admit", times=1)
    gateway = QueryGateway()
    ctx = ExecutionContext(faults=faults)
    with pytest.raises(RuntimeError):
        with gateway.admit(ctx):
            pass
    assert faults.fired("gateway.admit") == 1
    assert ctx.health.faults == 1
    # The failed admission held no slot.
    assert gateway.stats().active == 0
    with gateway.admit(ctx):
        pass


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------
SQL = """
    select g, count(distinct x) over w as uniq
    from t
    window w as (partition by g order by o
                 rows between 10 preceding and current row)
"""


def test_session_routes_queries_through_the_gateway():
    catalog = Catalog({"t": make_window_table(120)})
    with Session(catalog, config=SessionConfig(max_concurrent=2)) as session:
        session.execute(SQL)
        session.execute(SQL, priority="batch")
        stats = session.gateway.stats()
        assert stats.admitted == 2
        assert stats.admitted_by_class == {"interactive": 1, "batch": 1}
        assert session.health_stats().admitted == 2
        text = session.explain(SQL)
        assert "Gateway" in text
        assert "slots=2" in text
        # Healthy run: admission is visible, Resilience stays quiet.
        assert "Resilience" not in text


def test_session_sheds_when_saturated():
    catalog = Catalog({"t": make_window_table(120)})
    with Session(catalog, config=SessionConfig(
                 max_concurrent=1, max_queue=0)) as session:
        occupant_in = threading.Event()
        release = threading.Event()

        def occupant():
            with session.gateway.admit(ExecutionContext()):
                occupant_in.set()
                release.wait(timeout=10)

        thread = _start(occupant)
        occupant_in.wait(timeout=10)
        with pytest.raises(QueryRejectedError):
            session.execute(SQL)
        assert session.health_stats().shed == 1
        release.set()
        thread.join(timeout=10)
        # After the slot frees, the same session serves normally.
        session.execute(SQL)
        assert "shed=1" in session.explain(SQL)


def test_concurrent_sessions_all_complete():
    catalog = Catalog({"t": make_window_table(200)})
    with Session(catalog, config=SessionConfig(
                 max_concurrent=2, max_queue=16)) as session:
        expected = session.execute(SQL).column("uniq").to_list()
        errors = []
        results = []
        lock = threading.Lock()

        def run(priority):
            try:
                table = session.execute(SQL, priority=priority)
                with lock:
                    results.append(table.column("uniq").to_list())
            except Exception as exc:  # pragma: no cover - failure path
                with lock:
                    errors.append(exc)

        threads = [_start(lambda p=p: run(p))
                   for p in ["interactive", "batch"] * 4]
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 8
        for values in results:
            assert values == expected
        assert session.gateway.stats().admitted == 9
