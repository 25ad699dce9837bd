"""Structure-cache warm serving: cold-vs-warm latency and eviction.

The serving pattern the cache targets (ROADMAP north star): one
long-lived session, the same windowed queries arriving repeatedly over
unchanged data. Cold runs pay the O(n log n) builds; warm runs are pure
probes against cached trees. A second experiment squeezes the byte
budget until structures are evicted and rebuilt on their next use,
measuring the cost of serving from a budget smaller than the working
set.
"""

import pytest

from conftest import emit
from repro.bench.harness import (
    BenchSeries,
    measure_with_memory,
    save_series_json,
    scaled,
)
from repro.cache import StructureCache, structure_bytes
from repro.resilience.memory import MemoryGovernor
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


@pytest.fixture(scope="module")
def table():
    return lineitem(scaled(10_000))


def _plan():
    spec = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(499), current_row()))
    calls = [
        WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5),
        WindowCall("count", ("l_partkey",), distinct=True),
        WindowCall("rank"),
    ]
    return calls, spec


def test_cold_vs_warm(benchmark, table):
    """Cold build vs warm probe latency through one shared cache."""
    calls, spec = _plan()
    n = table.num_rows
    series = BenchSeries(
        f"Structure cache — cold vs warm serving (n = {n})",
        ["run", "seconds", "peak_bytes", "hits", "misses"])

    cache = StructureCache()
    results = []
    for run in ("cold", "warm", "warm2"):
        seconds, peak = measure_with_memory(
            lambda: results.append(
                window_query(table, calls, spec, cache=cache)))
        stats = cache.stats()
        series.add(run, seconds, peak, stats.hits, stats.misses)
    stats = cache.stats()
    assert stats.misses > 0 and stats.hits >= 2 * stats.misses, \
        "warm runs must be served from the cache"
    baseline = window_query(table, calls, spec)
    for result in results[:3]:
        for a, b in zip(result.columns[-3:], baseline.columns[-3:]):
            assert a.to_list() == b.to_list()
    series.meta["budget_bytes"] = None
    series.meta["bytes_in_use"] = stats.bytes_in_use
    series.note("warm = same query re-run through one StructureCache; "
                "structures probe-only after the first run")
    emit(series)
    print(f"  saved: {save_series_json(series)}")

    benchmark.pedantic(window_query, args=(table, calls, spec),
                       kwargs={"cache": cache}, rounds=3, iterations=1)
    cache.close()


def test_eviction_under_tight_budget(table):
    """Budget sweep: from everything-resident down to thrashing."""
    calls, spec = _plan()
    n = table.num_rows

    probe = StructureCache()
    window_query(table, calls, spec, cache=probe)
    working_set = probe.stats().bytes_in_use
    probe.close()

    series = BenchSeries(
        f"Structure cache — eviction under a byte budget (n = {n})",
        ["budget_bytes", "seconds", "evictions", "rebuilds",
         "bytes_in_use"])
    for fraction in (None, 1.0, 0.5, 0.1):
        budget = None if fraction is None else int(working_set * fraction)
        # No session: the ledger holds only this cache's trees.
        cache = StructureCache(MemoryGovernor(budget))
        window_query(table, calls, spec, cache=cache)  # populate
        populated = cache.stats().misses
        seconds, _ = measure_with_memory(
            lambda: window_query(table, calls, spec, cache=cache))
        stats = cache.stats()
        rebuilds = stats.misses - populated
        series.add("unlimited" if budget is None else budget, seconds,
                   stats.evictions, rebuilds, stats.bytes_in_use)
        cache.close()
        if fraction is None or fraction >= 1.0:
            assert rebuilds == 0, "a resident working set rebuilds nothing"
        else:
            assert stats.evictions > 0 and rebuilds > 0, \
                "a budget below the working set evicts and rebuilds"
    series.meta["working_set_bytes"] = int(working_set)
    series.note("budgets below the working set trade probe-only serving "
                "for rebuilding evicted trees on every run")
    emit(series)
    print(f"  saved: {save_series_json(series)}")


def test_structure_bytes_accounting(table):
    """The budget charges real measured bytes for every structure kind."""
    import numpy as np

    from repro.mst.tree import MergeSortTree

    tree = MergeSortTree(np.arange(scaled(10_000)))
    nbytes = structure_bytes(tree)
    assert nbytes >= tree.memory_bytes() * 0.5
    assert nbytes > 0
