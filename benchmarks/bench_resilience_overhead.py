"""Cost of the resilience stack on the hot path.

The guardrails are designed to be free when idle: with ``verify_rate=0``
the shadow-verification gate is a single attribute test per evaluated
call, and gateway admission with a free slot is one lock
round-trip per query. This benchmark measures the warm-serving path
(structures cached, probe-only) three ways — no guardrails, guardrails
armed with verification off, and 100% shadow verification — and asserts
the middle configuration stays within noise of the first.
"""

import pytest

from conftest import emit
from repro.bench.harness import BenchSeries, measure, scaled
from repro.cache import StructureCache
from repro.resilience import ExecutionContext, activate
from repro.tpch import lineitem
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    preceding,
    window_query,
)
from repro.window.frame import OrderItem

#: Generous noise ceiling for "no measurable overhead": warm probe runs
#: jitter by a few percent on shared CI machines.
MAX_IDLE_OVERHEAD = 1.30


@pytest.fixture(scope="module")
def table():
    return lineitem(scaled(10_000))


def _plan():
    spec = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(499), current_row()))
    calls = [
        WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5),
        WindowCall("count", ("l_partkey",), distinct=True),
    ]
    return calls, spec


def test_resilience_overhead_when_idle(table):
    """A guarded context with verify_rate=0 vs no guardrails at all."""
    calls, spec = _plan()
    n = table.num_rows
    with StructureCache() as cache:
        window_query(table, calls, spec, cache=cache)  # warm the cache

        def run():
            window_query(table, calls, spec, cache=cache)

        baseline = measure(run, repeats=5, warmup=True)

        guarded_ctx = ExecutionContext(verify_rate=0.0)
        with activate(guarded_ctx):
            guarded = measure(run, repeats=5, warmup=True)

        shadow_ctx = ExecutionContext(verify_rate=1.0)
        with activate(shadow_ctx):
            shadow = measure(run, repeats=3, warmup=True)

    series = BenchSeries(
        f"Resilience overhead — warm window query (n = {n})",
        ["configuration", "seconds", "vs_baseline"])
    series.add("no guardrails", baseline, 1.0)
    series.add("guarded, verify_rate=0", guarded, guarded / baseline)
    series.add("shadow verify 100%", shadow, shadow / baseline)
    series.meta["verifications"] = shadow_ctx.health.verifications
    series.note("verify_rate=0 must be free: the gate is one attribute "
                "test per call")
    emit(series)

    assert guarded_ctx.health.verifications == 0
    assert shadow_ctx.health.verifications > 0
    assert shadow_ctx.health.verification_failures == 0
    assert guarded <= baseline * MAX_IDLE_OVERHEAD, (
        f"idle guardrails cost {guarded / baseline:.2f}x "
        f"(limit {MAX_IDLE_OVERHEAD}x)")
