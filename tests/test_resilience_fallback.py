"""Graceful degradation: fault-injected builds vs the healthy path.

The acceptance property: with every index-structure build forced to
fail, queries must still complete — transparently downgraded to the
baseline evaluators — with results identical to the healthy run, the
downgrades visible in the health counters, and the session fully usable
afterwards.
"""

import time

import pytest

from conftest import assert_columns_equal, make_window_table
from repro import Catalog, Session, SessionConfig
from repro.cache.store import StructureCache
from repro.errors import QueryCancelledError
from repro.resilience import (
    CancellationToken,
    ExecutionContext,
    FaultInjector,
    ResourceLimits,
    activate,
)
from repro.window.calls import WindowCall
from repro.window.frame import (
    FrameSpec,
    OrderItem,
    WindowSpec,
    current_row,
    preceding,
)
from repro.window.operator import window_query

TABLE = make_window_table(n=140, seed=7)
SPEC = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                  frame=FrameSpec.rows(preceding(6), current_row()))

#: One call per function family (every family the engine evaluates).
CALLS = {
    "sum_distinct": dict(function="sum", args=["x"], distinct=True),
    "count_distinct": dict(function="count", args=["x"], distinct=True),
    "sum": dict(function="sum", args=["y"]),
    "min": dict(function="min", args=["x"]),
    "percentile_disc": dict(function="percentile_disc", args=["x"],
                            fraction=0.25),
    "median": dict(function="median", args=["y"]),
    "rank": dict(function="rank", order_by=(OrderItem("x"),)),
    "dense_rank": dict(function="dense_rank", order_by=(OrderItem("x"),)),
    "mode": dict(function="mode", args=["x"]),
    "first_value": dict(function="first_value", args=["y"],
                        order_by=(OrderItem("x"),)),
    "lead": dict(function="lead", args=["y"], offset=2,
                 order_by=(OrderItem("x"),)),
}


def _run(kwargs, faults=None):
    call = WindowCall(kwargs["function"],
                      kwargs.get("args", []),
                      **{k: v for k, v in kwargs.items()
                         if k not in ("function", "args")})
    ctx = ExecutionContext(faults=faults)
    with activate(ctx):
        result = window_query(TABLE, [call], SPEC)
    return result.columns[-1].to_list(), ctx.health


@pytest.mark.parametrize("name", sorted(CALLS))
def test_forced_fallback_matches_healthy_path(name):
    healthy, healthy_health = _run(CALLS[name])
    faults = FaultInjector().plan("structure.build", times=-1)
    degraded, degraded_health = _run(CALLS[name], faults=faults)
    assert_columns_equal(degraded, healthy)
    assert healthy_health.fallbacks == 0
    if faults.fired("structure.build"):
        # Families that build structures must record their downgrade.
        assert degraded_health.fallbacks > 0
        assert any("-> naive" in entry
                   for entry in degraded_health.downgrades)


def test_structure_byte_limit_degrades_instead_of_failing():
    healthy, _ = _run(CALLS["count_distinct"])
    call = WindowCall("count", ["x"], distinct=True)
    ctx = ExecutionContext(limits=ResourceLimits(max_structure_bytes=1))
    with activate(ctx):
        result = window_query(TABLE, [call], SPEC)
    assert_columns_equal(result.columns[-1].to_list(), healthy)
    assert ctx.health.fallbacks > 0
    assert ctx.health.limit_hits > 0


def test_session_survives_fault_storm_and_recovers():
    catalog = Catalog({"t": TABLE})
    sql = """
        select g, count(distinct x) over w as uniq,
               percentile_disc(0.5, order by x) over w as med,
               rank(order by y desc) over w as rnk
        from t
        window w as (partition by g order by o
                     rows between 20 preceding and current row)
    """
    with Session(catalog) as healthy_session:
        expected = healthy_session.execute(sql)

    # The storm trips the structure.build circuit breaker; a tiny reset
    # timeout lets the healed session recover within the test instead
    # of failing fast for the default 30s window.
    faults = FaultInjector().plan("structure.build", times=-1)
    with Session(catalog, config=SessionConfig(
                 faults=faults, breaker_reset=0.001)) as session:
        degraded = session.execute(sql)
        for name in expected.schema.names():
            assert_columns_equal(degraded.column(name).to_list(),
                                 expected.column(name).to_list())
        assert session.health_stats().fallbacks > 0

        # Heal the faults: the same session must return to the indexed
        # path (structures build and the cache records misses/hits).
        faults.clear()
        time.sleep(0.01)  # let the breaker's reset timeout elapse
        recovered = session.execute(sql)
        for name in expected.schema.names():
            assert_columns_equal(recovered.column(name).to_list(),
                                 expected.column(name).to_list())
        before = session.cache_stats().misses
        assert before > 0
        again = session.execute(sql)
        for name in expected.schema.names():
            assert_columns_equal(again.column(name).to_list(),
                                 expected.column(name).to_list())
        assert session.cache_stats().hits > 0


def test_intermittent_build_fault_single_downgrade():
    # Only the first build fails; later calls use real structures, and
    # exactly the affected call degrades.
    faults = FaultInjector().plan("structure.build", times=1)
    healthy, _ = _run(CALLS["count_distinct"])
    degraded, health = _run(CALLS["count_distinct"], faults=faults)
    assert_columns_equal(degraded, healthy)
    assert health.fallbacks == faults.fired("structure.build") == 1


# ----------------------------------------------------------------------
# a query stopped inside a window group
# ----------------------------------------------------------------------
GROUP_SQL = """
    select g, count(distinct x) over w as uniq,
           percentile_disc(0.5, order by x) over w as med,
           rank(order by y desc) over w as rnk
    from t
    window w as (partition by g order by o
                 rows between 20 preceding and current row)
"""


def _cancel_at_second_build(token):
    """Faults that cancel ``token`` as the group's second structure
    build starts: the group's sort and first tree are pinned in the
    cache by then, and the next checkpoint stops the query."""
    def cancel_and_fail():
        token.cancel()
        return RuntimeError("injected mid-group cancel")

    return FaultInjector().plan("structure.build", times=1, after=1,
                                exception=cancel_and_fail)


def test_cancellation_mid_group_leaves_no_pins():
    token = CancellationToken()
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(20), current_row()))
    calls = [WindowCall(**CALLS[name])
             for name in ("count_distinct", "percentile_disc", "rank")]
    with StructureCache() as cache:
        ctx = ExecutionContext(token=token,
                               faults=_cancel_at_second_build(token))
        with activate(ctx):
            with pytest.raises(QueryCancelledError):
                window_query(TABLE, calls, spec, cache=cache)
        stats = cache.stats()
        assert stats.entries >= 2  # the sort and the first tree
        assert stats.pinned_entries == 0
        # The cached entries stay usable: a fresh context answers the
        # same as a query that never shared the cache.
        assert (window_query(TABLE, calls, spec, cache=cache).to_rows()
                == window_query(TABLE, calls, spec).to_rows())


def test_mid_group_fault_surfaces_typed_then_session_recovers():
    catalog = Catalog({"t": TABLE})
    with Session(catalog) as healthy_session:
        expected = healthy_session.execute(GROUP_SQL).to_rows()
    token = CancellationToken()
    with Session(catalog, config=SessionConfig(
                 faults=_cancel_at_second_build(token))) as session:
        with pytest.raises(QueryCancelledError):
            session.execute(GROUP_SQL, token=token)
        assert session.health_stats().cancellations == 1
        assert session.cache_stats().pinned_entries == 0
        # The same session answers the next query, from the entries the
        # cancelled one left cached plus fresh builds.
        again = session.execute(GROUP_SQL)
        assert again.to_rows() == expected
        assert again.stats.structure_reuses >= 1
