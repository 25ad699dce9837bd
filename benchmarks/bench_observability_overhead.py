"""Cost of the observability hooks on the warm window-query path.

The tracing design contract is "free when off": every instrumentation
point guards with one ``tracer.enabled`` attribute test (the shared
:data:`~repro.obs.NULL_TRACER`), and the always-on per-query telemetry
is a handful of locked integer bumps per query — not per row. This
benchmark measures the same warm, structure-cached window query as
``bench_resilience_overhead.py`` three ways — ambient context, a
guarded context with tracing disabled, and a guarded context with a
live :class:`~repro.obs.Tracer` — and asserts the disabled
configuration stays within the ±3% budget documented in DESIGN.md §7.
"""

import statistics

import pytest

from conftest import emit
from repro.bench.harness import BenchSeries, measure, save_series_json, scaled
from repro.cache import StructureCache
from repro.obs import Tracer
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

#: DESIGN.md §7 overhead budget for disabled tracing, plus measurement
#: noise headroom on shared CI machines.
MAX_DISABLED_OVERHEAD = 1.03
NOISE_HEADROOM = 1.05
#: Alternated (ambient, disabled) single runs; medians are compared.
PAIRS = 9


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


def test_observability_overhead(table):
    """Disabled tracing vs no context at all, plus the traced cost."""
    calls, spec = _plan()
    n = table.num_rows
    with StructureCache() as cache:
        window_query(table, calls, spec, cache=cache)  # warm the cache

        def run():
            window_query(table, calls, spec, cache=cache)

        disabled_ctx = ExecutionContext()

        def run_disabled():
            with activate(disabled_ctx):
                run()

        # Single runs of the two, alternated, so that drift of the box
        # between two blocks of runs cannot pass for overhead.
        run_disabled()
        ambient, guarded = [], []
        for _ in range(PAIRS):
            ambient.append(measure(run))
            guarded.append(measure(run_disabled))
        baseline = statistics.median(ambient)
        disabled = statistics.median(guarded)

        tracer = Tracer(max_spans=1_000_000)
        traced_ctx = ExecutionContext(tracer=tracer)
        with activate(traced_ctx):
            traced = measure(run, repeats=3, warmup=True)
        tracer.finish()

    series = BenchSeries(
        f"Observability overhead — warm window query (n = {n})",
        ["configuration", "seconds", "vs_baseline"])
    series.add("ambient (no context)", baseline, 1.0)
    series.add("tracing disabled", disabled, disabled / baseline)
    series.add("tracing enabled", traced, traced / baseline)
    series.meta["budget"] = MAX_DISABLED_OVERHEAD
    series.meta["trace_spans"] = sum(1 for _ in tracer.root.walk())
    series.meta["probes"] = len(tracer.root.find_all("probe"))
    series.note("disabled tracing must be one attribute test per hook: "
                "the NULL_TRACER's enabled flag")
    emit(series)
    path = save_series_json(series, filename="BENCH_observability.json")
    print(f"  saved: {path}")

    assert tracer.root.find_all("probe"), "traced run recorded no spans"
    assert disabled <= baseline * MAX_DISABLED_OVERHEAD * NOISE_HEADROOM, (
        f"disabled tracing cost {disabled / baseline:.3f}x "
        f"(budget {MAX_DISABLED_OVERHEAD}x)")
