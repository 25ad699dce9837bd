"""Circuit breaker state machine and its wiring into structure builds.

Tentpole coverage for the resilience ISSUE: per-resource breakers trip
after repeated failures, fail fast while open, admit exactly one
half-open probe per reset timeout, and recover on probe success — all
on the pluggable clock so every transition is deterministic. The
integration half checks the degradation contract: an open
``structure.build`` breaker routes evaluation to the naive fallback,
and a build that runs out of memory degrades only its own call, never
striking the session-wide breaker.
"""

import pytest

from conftest import assert_columns_equal, make_window_table
from repro import Catalog, Session, SessionConfig
from repro.errors import CircuitOpenError, StructureBuildError
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
    ExecutionContext,
    FaultInjector,
    SimulatedClock,
    activate,
    guarded_builder,
)


def _breaker(threshold=3, reset=10.0, clock=None):
    clock = clock if clock is not None else SimulatedClock()
    return CircuitBreaker("r", failure_threshold=threshold,
                          reset_timeout=reset, clock=clock), clock


# ----------------------------------------------------------------------
# state machine
# ----------------------------------------------------------------------
def test_breaker_starts_closed_and_allows():
    breaker, _ = _breaker()
    assert breaker.state == CLOSED
    breaker.allow()  # no raise


def test_breaker_trips_after_consecutive_failures():
    breaker, _ = _breaker(threshold=3)
    assert breaker.record_failure() is False
    assert breaker.record_failure() is False
    assert breaker.record_failure() is True  # this one trips
    assert breaker.state == OPEN
    with pytest.raises(CircuitOpenError) as info:
        breaker.allow()
    assert info.value.resource == "r"
    assert info.value.retry_after > 0


def test_success_resets_the_consecutive_count():
    breaker, _ = _breaker(threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED  # never reached 2 in a row


def test_open_breaker_goes_half_open_after_timeout():
    breaker, clock = _breaker(threshold=1, reset=10.0)
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.advance(9.9)
    assert breaker.state == OPEN
    clock.advance(0.2)
    assert breaker.state == HALF_OPEN


def test_half_open_probe_success_closes():
    breaker, clock = _breaker(threshold=1, reset=10.0)
    breaker.record_failure()
    clock.advance(10.1)
    breaker.allow()  # the probe
    breaker.record_success()
    assert breaker.state == CLOSED
    snap = breaker.snapshot()
    assert snap.probes == 1
    assert snap.recoveries == 1


def test_half_open_probe_failure_reopens():
    breaker, clock = _breaker(threshold=3, reset=10.0)
    for _ in range(3):
        breaker.record_failure()
    clock.advance(10.1)
    breaker.allow()
    assert breaker.record_failure() is True  # half-open: one strike
    assert breaker.state == OPEN
    with pytest.raises(CircuitOpenError):
        breaker.allow()
    assert breaker.snapshot().trips == 2


def test_half_open_admits_one_probe_at_a_time():
    breaker, clock = _breaker(threshold=1, reset=10.0)
    breaker.record_failure()
    clock.advance(10.1)
    breaker.allow()  # probe in flight
    with pytest.raises(CircuitOpenError):
        breaker.allow()  # second caller keeps failing fast


def test_lost_probe_unblocks_after_another_timeout():
    breaker, clock = _breaker(threshold=1, reset=10.0)
    breaker.record_failure()
    clock.advance(10.1)
    breaker.allow()  # probe admitted, outcome never reported
    clock.advance(10.1)
    breaker.allow()  # a fresh probe may go
    breaker.record_success()
    assert breaker.state == CLOSED


def test_reset_forces_closed():
    breaker, _ = _breaker(threshold=1)
    breaker.record_failure()
    breaker.reset()
    assert breaker.state == CLOSED
    breaker.allow()


def test_snapshot_counts_short_circuits():
    breaker, _ = _breaker(threshold=1)
    breaker.record_failure()
    for _ in range(3):
        with pytest.raises(CircuitOpenError):
            breaker.allow()
    snap = breaker.snapshot()
    assert snap.short_circuits == 3
    assert snap.failures == 1
    assert "open" in snap.render()


def test_probe_fires_the_circuit_probe_fault_site():
    breaker, clock = _breaker(threshold=1, reset=1.0)
    breaker.record_failure()
    clock.advance(1.1)
    faults = FaultInjector().plan("circuit.probe", times=1)
    with activate(ExecutionContext(faults=faults)):
        with pytest.raises(RuntimeError):
            breaker.allow()
    assert faults.fired("circuit.probe") == 1


def test_breaker_ctor_validation():
    with pytest.raises(ValueError):
        CircuitBreaker("r", failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker("r", reset_timeout=0.0)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_lazily_creates_and_caches():
    registry = BreakerRegistry(failure_threshold=2, reset_timeout=5.0,
                               clock=SimulatedClock())
    a = registry.get("structure.build")
    assert registry.get("structure.build") is a
    assert a.failure_threshold == 2
    assert registry.get("join.build") is not a


def test_registry_render_skips_untouched_breakers():
    registry = BreakerRegistry()
    registry.get("quiet")
    busy = registry.get("busy")
    busy.record_failure()
    lines = registry.render()
    assert len(lines) == 1
    assert lines[0].startswith("busy:")


def test_registry_reset_all():
    registry = BreakerRegistry(failure_threshold=1)
    registry.get("a").record_failure()
    registry.get("b").record_failure()
    registry.reset_all()
    assert registry.get("a").state == CLOSED
    assert registry.get("b").state == CLOSED


# ----------------------------------------------------------------------
# guarded_builder integration
# ----------------------------------------------------------------------
def _failing_builder():
    raise RuntimeError("boom")


def test_build_breaker_trips_and_short_circuits():
    clock = SimulatedClock()
    registry = BreakerRegistry(failure_threshold=2, reset_timeout=30.0,
                               clock=clock)
    ctx = ExecutionContext(breakers=registry, clock=clock)
    with activate(ctx):
        build = guarded_builder("mst", _failing_builder)
        for _ in range(2):
            with pytest.raises(StructureBuildError):
                build()
        # Tripped: the next build never runs the builder.
        with pytest.raises(CircuitOpenError):
            build()
    assert ctx.health.breaker_trips == 1
    assert ctx.health.breaker_short_circuits == 1
    assert registry.get("structure.build").state == OPEN


def test_build_breaker_recovers_through_half_open():
    clock = SimulatedClock()
    registry = BreakerRegistry(failure_threshold=1, reset_timeout=5.0,
                               clock=clock)
    ctx = ExecutionContext(breakers=registry, clock=clock)
    with activate(ctx):
        with pytest.raises(StructureBuildError):
            guarded_builder("mst", _failing_builder)()
        clock.advance(5.1)
        result = guarded_builder("mst", lambda: "tree")()
    assert result == "tree"
    assert registry.get("structure.build").state == CLOSED
    assert registry.get("structure.build").snapshot().recoveries == 1


def test_open_build_breaker_degrades_query_to_naive():
    catalog = Catalog({"t": make_window_table(150)})
    sql = """
        select g, count(distinct x) over w as uniq
        from t
        window w as (partition by g order by o
                     rows between 10 preceding and current row)
    """
    with Session(catalog) as healthy:
        expected = healthy.execute(sql)
    faults = FaultInjector().plan("structure.build", times=-1)
    with Session(catalog, config=SessionConfig(
                 faults=faults, breaker_threshold=2)) as session:
        # The group builds its one tree per query: two failed queries
        # make the two strikes that trip the breaker.
        for _ in range(2):
            degraded = session.execute(sql)
            assert_columns_equal(degraded.column("uniq").to_list(),
                                 expected.column("uniq").to_list())
        build = session.breakers.get("structure.build").snapshot()
        assert build.trips >= 1
        # Later builds short-circuited instead of re-failing.
        faults.clear()
        again = session.execute(sql)
        assert_columns_equal(again.column("uniq").to_list(),
                             expected.column("uniq").to_list())
        assert session.breakers.get(
            "structure.build").snapshot().short_circuits > 0
        assert session.health_stats().breaker_trips >= 1
        text = session.explain(sql)
        assert "Breakers" in text
        assert "structure.build" in text


def test_memory_error_in_build_does_not_strike_the_breaker():
    """A ``MemoryError`` says the session is short of memory, not that
    the build path is broken: each faulted build degrades its own call
    to naive, the breaker stays closed, and the first fault-free query
    builds its tree again instead of being short-circuited."""
    catalog = Catalog({"t": make_window_table(150)})
    sql = """
        select o, percentile_disc(0.5, order by x) over (
            order by o rows between 10 preceding and current row) as med
        from t
    """
    with Session(catalog) as healthy:
        expected = healthy.execute(sql).column("med").to_list()
    # One tree per query, so the five faults land in five queries: as
    # many consecutive failures as the default breaker_threshold.
    faults = FaultInjector().plan("structure.build", times=5,
                                  exception=MemoryError)
    with Session(catalog, config=SessionConfig(faults=faults)) as session:
        results = [session.execute(sql) for _ in range(6)]
        assert faults.fired("structure.build") == 5
        for result in results:
            assert result.column("med").to_list() == expected
        assert results[4].stats.health.fallbacks == 1
        sixth = results[5].stats.health
        assert sixth.fallbacks == 0 and sixth.downgrades == []
        assert sixth.breaker_short_circuits == 0
        build = session.breakers.get("structure.build").snapshot()
        assert build.state == CLOSED
        assert session.health_stats().breaker_trips == 0
