"""TPC-H suite latency through the relational frontend.

Every runnable TPC-H query (18 of 22 — see :mod:`repro.tpch.queries`
for the four blocked ones) executes at SF 0.01 with tracing on, and the
trace spans split each query's wall time into hash-join build, probe
and CTE-materialization components. That split is the interesting
number: the frontend's job is to keep the join plumbing cheap relative
to the window/aggregate work the paper is actually about.

The JSON artifact (``BENCH_tpch.json``) carries one row per query so
CI runs can be diffed for per-query regressions.
"""

import pytest

from conftest import emit
from repro.bench.harness import (
    BenchSeries,
    bench_scale,
    measure,
    save_series_json,
)
from repro.sql import QueryOptions, Session, SessionConfig
from repro.tpch.queries import BLOCKED, QUERIES
from repro.tpch.tables import tpch_catalog

SCALE_FACTOR = 0.01 * bench_scale()


@pytest.fixture(scope="module")
def session():
    session = Session(tpch_catalog(SCALE_FACTOR),
                      config=SessionConfig.from_env())
    yield session
    session.close()


def _span_ms(trace, name):
    return sum(s.duration for s in trace.find_all(name)) * 1000.0


def test_tpch_suite_latency(session):
    """Per-query latency with the join build/probe/CTE time split."""
    series = BenchSeries(
        f"TPC-H suite — relational frontend (SF {SCALE_FACTOR:g})",
        ["query", "rows", "total_ms", "join_build_ms", "join_probe_ms",
         "cte_ms", "joins"])
    series.meta["scale_factor"] = SCALE_FACTOR
    series.meta["executor"] = SessionConfig.from_env().executor
    series.meta["blocked"] = sorted(BLOCKED)

    totals = {"total": 0.0, "build": 0.0, "probe": 0.0}
    for name in sorted(QUERIES, key=lambda q: int(q[1:])):
        sql = QUERIES[name]
        seconds = measure(lambda: session.execute(sql), repeats=2,
                          warmup=True)
        result = session.execute(sql, options=QueryOptions(trace=True))
        trace = result.trace
        build_ms = _span_ms(trace, "join.build")
        probe_ms = _span_ms(trace, "join.probe")
        cte_ms = _span_ms(trace, "cte.materialize")
        joins = len(trace.find_all("join.build"))
        series.add(name, result.num_rows, round(seconds * 1000.0, 3),
                   round(build_ms, 3), round(probe_ms, 3),
                   round(cte_ms, 3), joins)
        totals["total"] += seconds * 1000.0
        totals["build"] += build_ms
        totals["probe"] += probe_ms

        # The suite is a correctness gate too: every query returns rows.
        assert result.num_rows > 0, name

    series.note(f"blocked queries: {', '.join(sorted(BLOCKED))} "
                "(see repro.tpch.queries.BLOCKED for reasons)")
    series.note("join_*/cte_ms come from a separate traced run; "
                "total_ms is best-of-2 untraced")
    emit(series)
    path = save_series_json(series, "BENCH_tpch.json")
    print(f"  saved: {path}")

    # Sanity: the split actually measured something on a join-heavy
    # suite, and build+probe stay a fraction of total work.
    assert totals["build"] > 0 and totals["probe"] > 0
    assert len(series.rows) == len(QUERIES) >= 12
