"""Execution guardrails: deadlines, cancellation, limits, fault plans.

Unit coverage for :mod:`repro.resilience` plus the integration points
the ISSUE acceptance criteria name: queries under an expired deadline or
a set token raise their typed error at a batch boundary (never hang),
pool workers inherit the spawning query's context and fail fast, and
guardrail telemetry surfaces through ``Session.health_stats`` and
EXPLAIN.
"""

import threading

import pytest

from conftest import make_window_table
from repro import Catalog, Session, SessionConfig
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
    StructureBuildError,
)
from repro.resilience import (
    AMBIENT,
    CancellationToken,
    ExecutionContext,
    FaultInjector,
    HealthCounters,
    NO_FAULTS,
    ResourceLimits,
    SimulatedClock,
    activate,
    current_context,
    fallback_call,
    guarded_builder,
)

SQL = """
    select g, count(distinct x) over w as uniq,
           percentile_disc(0.5, order by x) over w as med
    from t
    window w as (partition by g order by o
                 rows between 10 preceding and current row)
"""


def _catalog(n=150):
    return Catalog({"t": make_window_table(n)})


class ExpiringClock(SimulatedClock):
    """Advances one second per read, so any deadline soon expires."""

    def monotonic(self):
        value = super().monotonic()
        self.advance(1.0)
        return value


# ----------------------------------------------------------------------
# clock / token / limits
# ----------------------------------------------------------------------
def test_simulated_clock_advances_and_sleeps_instantly():
    clock = SimulatedClock(start=5.0)
    assert clock.monotonic() == 5.0
    clock.advance(2.5)
    clock.sleep(1.5)  # must not block; advances instead
    assert clock.monotonic() == 9.0


def test_cancellation_token_is_sticky_and_thread_safe():
    token = CancellationToken()
    assert not token.cancelled
    threading.Thread(target=token.cancel).start()
    for _ in range(1000):
        if token.cancelled:
            break
    assert token.cancelled


def test_resource_limits_unlimited_flag():
    assert ResourceLimits().unlimited
    assert not ResourceLimits(max_rows=5).unlimited
    assert not ResourceLimits(max_structure_bytes=5).unlimited


# ----------------------------------------------------------------------
# ExecutionContext
# ----------------------------------------------------------------------
def test_unarmed_checkpoint_is_a_noop():
    ctx = ExecutionContext()
    ctx.checkpoint()  # must not raise
    ctx.tick(0)
    assert ctx.remaining() is None


def test_deadline_expiry_raises_timeout_and_counts():
    clock = SimulatedClock()
    ctx = ExecutionContext(timeout=10.0, clock=clock)
    ctx.checkpoint()  # within deadline
    clock.advance(11.0)
    with pytest.raises(QueryTimeoutError):
        ctx.checkpoint()
    assert ctx.health.timeouts == 1
    assert ctx.remaining() < 0


def test_absolute_deadline_wins_over_timeout():
    clock = SimulatedClock(start=100.0)
    ctx = ExecutionContext(timeout=1000.0, deadline=101.0, clock=clock)
    clock.advance(2.0)
    with pytest.raises(QueryTimeoutError):
        ctx.checkpoint()


def test_cancellation_checkpoint():
    token = CancellationToken()
    ctx = ExecutionContext(token=token)
    ctx.checkpoint()
    token.cancel()
    with pytest.raises(QueryCancelledError):
        ctx.checkpoint()
    assert ctx.health.cancellations == 1


def test_tick_checks_on_stride_boundaries_only():
    clock = SimulatedClock()
    ctx = ExecutionContext(timeout=1.0, clock=clock)
    clock.advance(5.0)
    ctx.tick(1)      # off-stride: no check
    ctx.tick(1023)   # off-stride: no check
    with pytest.raises(QueryTimeoutError):
        ctx.tick(1024)


def test_guard_rows_and_structure_bytes():
    ctx = ExecutionContext(limits=ResourceLimits(max_rows=10,
                                                 max_structure_bytes=100))
    ctx.guard_rows(10)
    with pytest.raises(ResourceLimitError):
        ctx.guard_rows(11)
    ctx.guard_structure_bytes("mst", 100)
    with pytest.raises(ResourceLimitError):
        ctx.guard_structure_bytes("mst", 101)
    assert ctx.health.limit_hits == 2


def test_activate_is_thread_local_and_restores():
    ctx = ExecutionContext(timeout=1.0, clock=SimulatedClock())
    assert current_context() is AMBIENT
    with activate(ctx):
        assert current_context() is ctx
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(current_context()))
        thread.start()
        thread.join()
        # other threads do NOT see this thread's context implicitly
        assert seen == [AMBIENT]
    assert current_context() is AMBIENT


# ----------------------------------------------------------------------
# fault injector
# ----------------------------------------------------------------------
def test_fault_plan_schedule_after_and_times():
    faults = FaultInjector().plan("memory.reserve", times=2, after=1)
    faults.fire("memory.reserve")  # call 1: before the window
    for _ in range(2):             # calls 2, 3: inside the window
        with pytest.raises(RuntimeError):
            faults.fire("memory.reserve")
    faults.fire("memory.reserve")  # call 4: window exhausted
    assert faults.calls("memory.reserve") == 4
    assert faults.fired("memory.reserve") == 2


def test_fault_plan_forever_and_clear():
    faults = FaultInjector().plan("structure.build", times=-1)
    for _ in range(5):
        with pytest.raises(RuntimeError):
            faults.fire("structure.build")
    faults.clear("structure.build")
    faults.fire("structure.build")  # no plan left
    assert not faults.armed


def test_fault_custom_exception_and_no_faults_singleton():
    faults = FaultInjector().plan("join.build",
                                  exception=lambda: ValueError("boom"))
    with pytest.raises(ValueError):
        faults.fire("join.build")
    NO_FAULTS.fire("anything")  # the shared disabled injector never fires


def test_context_fire_counts_health():
    ctx = ExecutionContext(faults=FaultInjector().plan("gateway.admit"))
    with pytest.raises(RuntimeError):
        ctx.fire("gateway.admit")
    ctx.fire("gateway.admit")  # plan exhausted
    assert ctx.health.faults == 1


# ----------------------------------------------------------------------
# guarded builds and the fallback decision
# ----------------------------------------------------------------------
def test_guarded_builder_wraps_unexpected_errors():
    def bad():
        raise KeyError("lost")

    with pytest.raises(StructureBuildError) as info:
        guarded_builder("mst:test", bad)()
    assert info.value.kind == "mst:test"


def test_guarded_builder_lets_resilience_errors_through():
    def cancelled():
        raise QueryCancelledError("stop")

    with pytest.raises(QueryCancelledError):
        guarded_builder("mst:test", cancelled)()


def test_guarded_builder_enforces_structure_budget():
    import numpy as np
    from repro.mst.tree import MergeSortTree

    ctx = ExecutionContext(limits=ResourceLimits(max_structure_bytes=8))
    build = guarded_builder(
        "mst:test", lambda: MergeSortTree(np.arange(64), fanout=2))
    with activate(ctx):
        with pytest.raises(ResourceLimitError):
            build()


def test_fallback_call_maps_to_naive_once():
    from repro.window.calls import WindowCall

    call = WindowCall("count", ["x"], distinct=True, algorithm="mst")
    fallback = fallback_call(call)
    assert fallback.algorithm == "naive"
    assert fallback.function == call.function
    assert fallback.distinct == call.distinct
    assert fallback_call(fallback) is None  # no second fallback level


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
def test_session_timeout_raises_within_deadline():
    with Session(_catalog(), config=SessionConfig(
                 timeout=5.0, clock=ExpiringClock())) as session:
        with pytest.raises(QueryTimeoutError):
            session.execute(SQL)
        assert session.health_stats().timeouts == 1
        # The session (and its cache) survives the failed query.
        relaxed = Session(_catalog())
        try:
            expected = relaxed.execute(SQL)
        finally:
            relaxed.close()
        assert expected.num_rows == 150


def test_session_per_query_timeout_overrides_default():
    with Session(_catalog(), config=SessionConfig(
                 clock=ExpiringClock())) as session:
        session.execute(SQL)  # no default timeout: runs fine
        with pytest.raises(QueryTimeoutError):
            session.execute(SQL, timeout=3.0)


def test_session_cancellation_token():
    token = CancellationToken()
    token.cancel()
    with Session(_catalog()) as session:
        with pytest.raises(QueryCancelledError):
            session.execute(SQL, token=token)
        assert session.health_stats().cancellations == 1
        # A later query without the token completes.
        assert session.execute(SQL).num_rows == 150


def test_session_max_rows_limit():
    with Session(_catalog(), config=SessionConfig(
                 limits=ResourceLimits(max_rows=10))) as session:
        with pytest.raises(ResourceLimitError):
            session.execute(SQL)
        assert session.health_stats().limit_hits == 1
        # Per-query limits override the default.
        assert session.execute(
            SQL, limits=ResourceLimits()).num_rows == 150


def test_health_counters_merge_and_render():
    a = HealthCounters(timeouts=1, downgrades=["x -> naive"])
    b = HealthCounters(fallbacks=2, downgrades=["x -> naive", "y -> naive"])
    a.merge(b)
    assert a.timeouts == 1 and a.fallbacks == 2
    assert a.downgrades == ["x -> naive", "y -> naive"]  # dedup'd
    text = "\n".join(a.render())
    assert "timeouts=1" in text and "fallback: y -> naive" in text


def test_explain_has_no_resilience_section_when_healthy():
    with Session(_catalog()) as session:
        session.execute(SQL)
        assert "Resilience" not in session.explain(SQL)


def test_explain_reports_resilience_after_fallback():
    faults = FaultInjector().plan("structure.build", times=-1)
    with Session(_catalog(), config=SessionConfig(faults=faults)) as session:
        session.execute(SQL)
        text = session.explain(SQL)
        assert "Resilience" in text
        assert "fallbacks=" in text
        assert "-> naive" in text
