"""End-to-end cache behaviour: the ISSUE acceptance criteria.

Running the same windowed query twice through one executor session must
build each index structure exactly once (visible in the hit counters),
and a deliberately tiny byte budget must evict and rebuild while
producing results identical to the uncached path.
"""

import threading

from conftest import make_window_table
from repro import Catalog, Session, SessionConfig, execute
from repro.cache.store import StructureCache
from repro.window.calls import WindowCall
from repro.window.frame import (
    FrameSpec,
    OrderItem,
    WindowSpec,
    current_row,
    preceding,
)
from repro.window.operator import window_query

SQL = """
    select g, o,
           percentile_disc(0.5, order by x) over w as med,
           count(distinct x) over w as uniq,
           rank(order by y desc) over w as rnk,
           first_value(y order by y) over w as lowest,
           sum(y) over w as total
    from t
    window w as (partition by g order by o
                 rows between 20 preceding and current row)
"""


def _assert_tables_equal(a, b):
    assert a.schema.names() == b.schema.names()
    for name in a.schema.names():
        va, vb = a.column(name).to_list(), b.column(name).to_list()
        for i, (u, v) in enumerate(zip(va, vb)):
            if isinstance(u, float) and isinstance(v, float):
                assert abs(u - v) < 1e-9, (name, i, u, v)
            else:
                assert u == v, (name, i, u, v)


# ----------------------------------------------------------------------
# query twice, build once
# ----------------------------------------------------------------------
def test_session_builds_each_structure_exactly_once():
    catalog = Catalog({"t": make_window_table(200)})
    uncached = execute(SQL, catalog)
    with Session(catalog) as session:
        cold = session.execute(SQL)
        stats = session.cache_stats()
        assert stats.misses > 0
        assert stats.hits == 0
        cold_misses = stats.misses

        warm = session.execute(SQL)
        stats = session.cache_stats()
        # Zero new misses: every structure was built exactly once.
        assert stats.misses == cold_misses
        assert stats.hits == cold_misses

        _assert_tables_equal(cold, uncached)
        _assert_tables_equal(warm, uncached)


def test_session_third_run_still_all_hits():
    catalog = Catalog({"t": make_window_table(150)})
    with Session(catalog) as session:
        for _ in range(3):
            result = session.execute(SQL)
        stats = session.cache_stats()
        assert stats.hits == 2 * stats.misses
        assert result.num_rows == 150


def test_session_different_frames_share_structures():
    # The cache key excludes the frame clause: changing only the ROWS
    # bounds must not rebuild anything.
    catalog = Catalog({"t": make_window_table(150)})
    narrow = SQL
    wide = SQL.replace("20 preceding", "80 preceding")
    with Session(catalog) as session:
        session.execute(narrow)
        misses = session.cache_stats().misses
        session.execute(wide)
        stats = session.cache_stats()
        assert stats.misses == misses
        assert stats.hits == misses


def test_session_data_change_invalidates():
    table = make_window_table(100)
    catalog = Catalog({"t": table})
    with Session(catalog) as session:
        session.execute(SQL)
        misses = session.cache_stats().misses
        table.column("x").append(7)  # append to an involved column
        table.column("g").append(0)
        table.column("o").append(1)
        table.column("y").append(0.5)
        table.column("flag").append(True)
        session.execute(SQL)
        # New fingerprint, new keys: everything rebuilt, nothing hit.
        stats = session.cache_stats()
        assert stats.misses == 2 * misses
        assert stats.hits == 0


def test_window_query_cold_warm_direct_api():
    table = make_window_table(180)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(15), current_row()))
    calls = [WindowCall("percentile_disc", ("x",), fraction=0.9),
             WindowCall("count", ("x",), distinct=True),
             WindowCall("lead", ("y",))]
    baseline = window_query(table, calls, spec)
    with StructureCache() as cache:
        cold = window_query(table, calls, spec, cache=cache)
        misses = cache.stats().misses
        assert misses > 0 and cache.stats().hits == 0
        warm = window_query(table, calls, spec, cache=cache)
        stats = cache.stats()
        assert stats.misses == misses and stats.hits == misses
    _assert_tables_equal(cold, baseline)
    _assert_tables_equal(warm, baseline)


# ----------------------------------------------------------------------
# tiny budget: evict, rebuild on next use, identical results
# ----------------------------------------------------------------------
def test_tiny_budget_spills_and_reloads_identically():
    """A tight session budget evicts; nothing spills, so the evicted
    trees are rebuilt on the next pass and the results stay identical.

    The ledger holds the query's reservation (2 x scanned bytes + 64
    KiB: ~79 KiB here), the cached plan (~5 KiB) and the trees (7
    entries, ~37 KiB, the largest ~8 KiB). 100 KiB is above reservation
    + plan + largest tree, so no tree is refused to the naive rung, and
    below reservation + plan + all trees, so the cache must evict."""
    catalog = Catalog({"t": make_window_table(200)})
    uncached = execute(SQL, catalog)
    config = SessionConfig(memory_budget_bytes=100 << 10)
    with Session(catalog, config=config) as session:
        first = session.execute(SQL)
        cold_misses = session.cache_stats().misses
        second = session.execute(SQL)
        stats = session.cache_stats()
        assert stats.evictions > 0
        # Evicted trees were dropped, so the second pass rebuilt them.
        assert stats.misses > cold_misses
        _assert_tables_equal(first, uncached)
        _assert_tables_equal(second, uncached)


def test_tiny_budget_without_spill_still_correct():
    """A budget the query's own reservation fills holds nothing once the
    query has released its pins.

    32 KiB is below the reservation (2 x scanned bytes + 64 KiB: ~73
    KiB here), so the ledger is over budget whenever a pin is
    released, and above the largest tree (~4 KiB), so every tree is
    built and cached rather than refused to the naive rung."""
    catalog = Catalog({"t": make_window_table(120)})
    uncached = execute(SQL, catalog)
    config = SessionConfig(memory_budget_bytes=32 << 10)
    with Session(catalog, config=config) as session:
        result = session.execute(SQL)
        stats = session.cache_stats()
        assert stats.evictions > 0
        assert stats.entries == 0 and stats.bytes_in_use == 0
        _assert_tables_equal(result, uncached)


# ----------------------------------------------------------------------
# EXPLAIN integration
# ----------------------------------------------------------------------
def test_explain_exposes_cache_stats():
    catalog = Catalog({"t": make_window_table(80)})
    with Session(catalog) as session:
        session.execute(SQL)
        plan = session.explain(SQL)
        assert "StructureCache" in plan
        stats = session.cache_stats()
        assert f"hits={stats.hits} misses={stats.misses}" in plan
        assert f"bytes={stats.bytes_in_use:,}" in plan


# ----------------------------------------------------------------------
# threaded sharing
# ----------------------------------------------------------------------
def test_concurrent_sessions_one_cache_consistent_results():
    table = make_window_table(150)
    catalog = Catalog({"t": table})
    baseline = execute(SQL, catalog)
    results = []
    errors = []
    with Session(catalog) as session:
        def run():
            try:
                results.append(session.execute(SQL))
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = session.cache_stats()
        # Builds under the cache lock: each structure built exactly once
        # no matter how the three executions interleave.
        assert stats.hits + stats.misses == 3 * stats.misses
    for result in results:
        _assert_tables_equal(result, baseline)
