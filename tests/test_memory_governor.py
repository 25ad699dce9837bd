"""The session memory governor: ledger, backpressure, integration.

Covers the byte ledger in isolation (soft vs hard reservations, waits
on the pluggable clock, cache-charge mirroring), the typed 503 wire
mapping, the ``memory.reserve`` fault site, Session-level admission
(batch shed vs interactive pressure), the Memory sections in EXPLAIN /
``/v1/healthz`` / metrics, and a small multi-tenant chaos leg: a
4-tenant server under a tiny budget keeps answering interactive
traffic with correct results or *typed* errors while batch traffic is
shed — never an untyped 500, never a crash.
"""

import asyncio
import json
import threading
from http.client import HTTPConnection

import pytest

from conftest import make_window_table
from repro.errors import MemoryPressureError, ResourceLimitError
from repro.resilience import FaultInjector
from repro.resilience.context import ResourceLimits, SimulatedClock
from repro.resilience.memory import MemoryGovernor, table_bytes
from repro.serve import QueryService, ServerThread, TenantPolicy, \
    TenantRegistry
from repro.serve.wire import error_response
from repro.sql import Catalog, Session, SessionConfig
from repro.sql.config import QueryOptions

WINDOW_SQL = """
    select g, sum(x) over w as s
    from t
    window w as (partition by g order by o
                 rows between 5 preceding and current row)
"""


def _catalog(n=120):
    return Catalog({"t": make_window_table(n)})


# ----------------------------------------------------------------------
# the ledger in isolation
# ----------------------------------------------------------------------
class TestLedger:
    def test_unlimited_tracks_but_never_refuses(self):
        gov = MemoryGovernor()
        assert not gov.limited
        with gov.reserve(1 << 40, tag="query"):
            assert gov.used == 1 << 40
            assert not gov.over_budget
        assert gov.used == 0
        stats = gov.stats()
        assert stats.reservations == 1
        assert stats.releases == 1
        assert stats.peak_bytes == 1 << 40
        assert not stats.eventful  # quiet: no budget, no pressure

    def test_release_is_idempotent(self):
        gov = MemoryGovernor(budget_bytes=1000)
        res = gov.reserve(600)
        res.release()
        res.release()
        assert gov.used == 0
        assert gov.stats().releases == 1

    def test_by_tag_breakdown(self):
        gov = MemoryGovernor(budget_bytes=10_000)
        gov.charge(1000, tag="structure_cache")
        gov.charge(500, tag="plan_cache")
        res = gov.reserve(200, tag="query")
        assert gov.stats().by_tag == {"structure_cache": 1000,
                                      "plan_cache": 500, "query": 200}
        res.release()
        gov.release(1000, tag="structure_cache")
        assert gov.stats().by_tag == {"plan_cache": 500}

    def test_over_release_raises(self):
        # An accounting bug surfaces instead of being clamped to zero.
        gov = MemoryGovernor()
        gov.charge(100, tag="plan_cache")
        with pytest.raises(AssertionError, match="holds 100"):
            gov.release(101, tag="plan_cache")
        with pytest.raises(AssertionError, match="holds 0"):
            gov.release(1, tag="structure_cache")
        res = gov.reserve(50, tag="query")
        gov.release(50, tag="query")  # a charge release of a reservation
        with pytest.raises(AssertionError):
            res.release()
        assert gov.stats().by_tag == {"plan_cache": 100}
        assert gov.used == 100

    def test_soft_overcommit_records_pressure(self):
        gov = MemoryGovernor(budget_bytes=1000)
        with gov.reserve(5000, hard=False):
            assert gov.over_budget
            assert gov.stats().pressure_events == 1

    def test_hard_oversized_is_denied_immediately(self):
        gov = MemoryGovernor(budget_bytes=1000, clock=SimulatedClock())
        with pytest.raises(MemoryPressureError) as info:
            gov.reserve(5000, hard=True)
        assert info.value.requested == 5000
        assert info.value.retry_after >= 1.0
        stats = gov.stats()
        assert stats.denials == 1
        assert stats.waits == 0  # no wait could ever satisfy it

    def test_hard_wait_expires_to_typed_shed(self):
        clock = SimulatedClock()
        gov = MemoryGovernor(budget_bytes=1000, clock=clock)
        held = gov.reserve(900, hard=False)
        with pytest.raises(MemoryPressureError):
            gov.reserve(500, hard=True, wait_timeout=0.5)
        stats = gov.stats()
        assert stats.waits == 1
        assert stats.denials == 1
        held.release()

    def test_hard_wait_succeeds_when_bytes_free_up(self):
        gov = MemoryGovernor(budget_bytes=1000)
        held = gov.reserve(900, hard=False)

        class ReleasingClock:
            """First sleep slice releases the blocking reservation."""

            def __init__(self):
                self.now = 0.0

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.now += seconds
                held.release()

        gov._clock = ReleasingClock()
        res = gov.reserve(500, hard=True, wait_timeout=5.0)
        assert res.nbytes == 500
        stats = gov.stats()
        assert stats.waits == 1
        assert stats.denials == 0

    def test_guard_structure_refuses_only_oversized(self):
        gov = MemoryGovernor(budget_bytes=1000)
        gov.guard_structure("mst", 1000)  # fits the whole budget
        with pytest.raises(MemoryPressureError):
            gov.guard_structure("mst", 1001)
        assert gov.stats().structure_denials == 1

    def test_memory_pressure_is_a_resource_limit_error(self):
        # Rides the existing FALLBACK_ERRORS ladder and wire mapping.
        assert issubclass(MemoryPressureError, ResourceLimitError)

    def test_table_bytes_counts_columns_and_validity(self):
        table = make_window_table(64)
        nbytes = table_bytes(table)
        assert nbytes > 64 * 8  # at least one int64 column


# ----------------------------------------------------------------------
# wire mapping
# ----------------------------------------------------------------------
def test_memory_pressure_maps_to_503_with_retry_after():
    exc = MemoryPressureError("no bytes", requested=100, available=10,
                              retry_after=7.0)
    status, headers, body = error_response(exc)
    assert status == 503
    assert headers["Retry-After"] == "7"
    assert body["error"]["code"] == "MEMORY_PRESSURE"
    assert body["error"]["type"] == "MemoryPressureError"


# ----------------------------------------------------------------------
# fault site
# ----------------------------------------------------------------------
def test_memory_reserve_fault_site_sheds_typed():
    faults = FaultInjector().plan(
        "memory.reserve", times=1,
        exception=lambda: MemoryPressureError("injected", retry_after=2.0))
    session = Session(_catalog(), config=SessionConfig(faults=faults))
    with pytest.raises(MemoryPressureError):
        session.execute(WINDOW_SQL)
    assert faults.fired("memory.reserve") == 1
    # The site only fires once per query; the next one runs clean.
    result = session.execute(WINDOW_SQL)
    assert result.stats.outcome == "ok"
    session.close()


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_budgeted_session_runs_and_reports(self):
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=64 << 20))
        baseline = Session(_catalog()).execute(WINDOW_SQL)
        result = session.execute(WINDOW_SQL)
        assert result == baseline
        stats = session.memory.stats()
        assert stats.budget_bytes == 64 << 20
        assert stats.reservations >= 1
        assert stats.releases == stats.reservations
        assert stats.reserved_bytes == 0  # everything released
        assert "structure_cache" in stats.by_tag or \
            "plan_cache" in stats.by_tag
        session.close()

    def test_batch_estimate_over_budget_is_shed(self):
        # Budget below the fixed per-query overhead: every batch
        # reservation exceeds the whole budget and sheds immediately.
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=10_000))
        with pytest.raises(MemoryPressureError):
            session.execute(WINDOW_SQL,
                            options=QueryOptions(priority="batch"))
        # Interactive overcommits softly and still answers.
        result = session.execute(WINDOW_SQL)
        assert result.stats.outcome == "ok"
        stats = session.memory.stats()
        assert stats.denials >= 1
        assert stats.pressure_events >= 1
        session.close()

    def test_explain_shows_memory_section_when_budgeted(self):
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=64 << 20))
        plan = session.explain(WINDOW_SQL)
        assert "Memory" in plan
        assert "budget=67,108,864 B" in plan
        session.close()

    def test_explain_memory_section_holds_both_caches(self):
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=64 << 20))
        session.execute(WINDOW_SQL)
        plan = session.explain(WINDOW_SQL)
        held = session.memory.stats().by_tag
        assert held["structure_cache"] == \
            session.cache_stats().bytes_in_use > 0
        assert held["plan_cache"] == \
            session.plan_cache.stats().bytes_in_use > 0
        assert (f"held: plan_cache={held['plan_cache']:,}B "
                f"structure_cache={held['structure_cache']:,}B") in plan
        session.close()

    def test_explain_quiet_without_budget(self, monkeypatch):
        # The CI soak leg budgets every session via the environment;
        # this test is about the *unbudgeted* rendering, so pin it.
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        session = Session(_catalog())
        plan = session.explain(WINDOW_SQL)
        assert "Memory" not in plan
        session.close()

    def test_metrics_export_memory_gauges(self):
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=64 << 20, metrics=True))
        session.execute(WINDOW_SQL)
        text = session.metrics_text()
        assert "repro_memory_budget_bytes 67108864" in text
        assert "repro_memory_reservations_total" in text
        assert "repro_memory_peak_bytes" in text
        session.close()


#: Distinct texts and structures for the one-ledger test below.
LEDGER_SQL = [
    f"select g, {call} over (partition by g order by o rows between "
    f"{back} preceding and current row) as v from t"
    for back in (3, 9)
    for call in ("sum(x)", "count(distinct x)", "rank(order by y)",
                 "percentile_disc(0.5, order by x)")]


def test_one_budget_evicts_structures_and_plans(monkeypatch):
    """One ``memory_budget_bytes`` bounds both caches through one ledger.

    8 KiB is below each query's reservation (2 x scanned bytes + 64
    KiB), so every tree is evicted once its pins are released, and
    below the eight cached plans (~2 KiB each), so inserting a plan
    evicts older ones; it is above the largest tree (~4 KiB) and one
    plan, so nothing is refused to the naive rung or kept out of the
    plan cache. Results are bit-identical to an unbudgeted session."""
    monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
    catalog = _catalog()
    with Session(catalog) as oracle:
        expected = [oracle.execute(sql) for sql in LEDGER_SQL]
        held = oracle.memory.stats().by_tag
        assert held["structure_cache"] == \
            oracle.cache_stats().bytes_in_use > 0
    session = Session(catalog, config=SessionConfig(
        memory_budget_bytes=8 << 10))
    for _ in range(2):
        for sql, want in zip(LEDGER_SQL, expected):
            assert session.execute(sql) == want
            held = session.memory.stats().by_tag
            assert held.get("structure_cache", 0) == \
                session.cache_stats().bytes_in_use
            assert held.get("plan_cache", 0) == \
                session.plan_cache.stats().bytes_in_use
    assert session.cache_stats().evictions > 0
    assert session.plan_cache.stats().evictions > 0
    assert session.memory.stats().structure_denials == 0
    session.close()
    assert session.memory.stats().by_tag == {}
    assert session.cache_stats().bytes_in_use == 0
    assert session.plan_cache.stats().bytes_in_use == 0


#: No NULLs in ``o`` / ``y``: every result row is valid.
HEADROOM_SQL = """
    select g, sum(o) over w as s, avg(y) over w as a
    from t
    window w as (partition by g order by o
                 rows between 7 preceding and 2 following)
"""

#: ``x`` has NULLs, and a frame of only NULLs sums to NULL.
HEADROOM_SQL_NULLS = """
    select g, sum(x) over w as s
    from t
    window w as (partition by g order by o
                 rows between 7 preceding and current row)
"""

#: NULLs in every partition's result: the first four rows' frames are
#: too short to have a fifth value.
HEADROOM_SQL_NTH = """
    select g, nth_value(x, 5) over w as v
    from t
    window w as (partition by g order by o
                 rows between 7 preceding and current row)
"""


@pytest.mark.parametrize("sql", [HEADROOM_SQL, HEADROOM_SQL_NULLS,
                                 HEADROOM_SQL_NTH],
                         ids=["plain", "nulls", "nth"])
def test_group_over_headroom_runs_serial_in_memory(sql, monkeypatch):
    """A 64 KiB budget is consumed by the query's own reservation, so
    the group's working set exceeds the headroom: the group runs in
    memory, with results identical to an unbudgeted run.

    The budget also refuses every tree larger than 64 KiB (naive rung);
    the unbudgeted run caps structures at the same size, so both take
    the same kernels and the comparison is bit for bit."""
    monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
    catalog = Catalog({"t": make_window_table(20_000)})
    oracle = Session(catalog, config=SessionConfig(
        limits=ResourceLimits(max_structure_bytes=64 << 10)))
    try:
        expected = oracle.execute(sql).table
    finally:
        oracle.close()
    session = Session(catalog, config=SessionConfig(
        memory_budget_bytes=64 << 10))
    try:
        assert session.execute(sql) == expected
    finally:
        session.close()


# ----------------------------------------------------------------------
# serving tier: healthz ledger + 4-tenant chaos leg under tiny budget
# ----------------------------------------------------------------------
def test_healthz_reports_memory_ledger():
    session = Session(_catalog(), config=SessionConfig(
        memory_budget_bytes=32 << 20))
    service = QueryService(session, own_session=True)
    try:
        session.execute(WINDOW_SQL)
        health = asyncio.run(service.healthz())
        assert health["memory"]["budget_bytes"] == 32 << 20
        assert "used_bytes" in health["memory"]
        # One ledger: each cache's bytes are its tag's.
        assert health["memory"]["by_tag"] == {
            "plan_cache": health["plan_cache"]["bytes_in_use"],
            "structure_cache": session.cache_stats().bytes_in_use}
    finally:
        service.close()


def _post(port, path, payload, tenant):
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json",
                              "x-repro-tenant": tenant})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_chaos_tiny_budget_multi_tenant_stays_typed():
    """4 tenants hammer a server whose budget sheds every batch query:
    interactive answers stay correct, batch rejections are typed 503s
    with MEMORY_PRESSURE, and the process never sees an untyped 500."""
    faults = FaultInjector().plan(
        "memory.reserve", times=3, after=5,
        exception=lambda: MemoryPressureError("injected pressure",
                                              retry_after=1.0))
    session = Session(_catalog(200), config=SessionConfig(
        memory_budget_bytes=10_000,  # < per-query overhead: batch sheds
        faults=faults, metrics=True))
    oracle = Session(_catalog(200)).execute(WINDOW_SQL)
    from repro.wire import to_jsonable
    expected_rows = to_jsonable(oracle.to_rows())
    tenants = TenantRegistry(
        policies={"etl": TenantPolicy(priority="batch")},
        clock=session.clock)
    service = QueryService(session, tenants=tenants, own_session=True)
    failures = []
    batch_sheds = []

    def hammer(tenant):
        for _ in range(6):
            try:
                status, out = _post(port, "/v1/execute",
                                    {"sql": WINDOW_SQL}, tenant)
            except Exception as exc:  # connection-level crash = fail
                failures.append((tenant, repr(exc)))
                return
            if status == 200:
                if out["rows"] != expected_rows:
                    failures.append((tenant, "wrong rows"))
            elif status in (408, 429, 503):
                if "error" not in out or "code" not in out["error"]:
                    failures.append((tenant, f"untyped {status}"))
                elif out["error"]["code"] == "MEMORY_PRESSURE":
                    batch_sheds.append(tenant)
            else:
                failures.append((tenant, f"unexpected status {status}"))

    with ServerThread(service) as handle:
        port = handle.port
        threads = [threading.Thread(target=hammer, args=(name,))
                   for name in ("dash-1", "dash-2", "dash-3", "etl")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []
        # The batch tenant (and/or injected faults) hit typed sheds.
        assert batch_sheds
        # The server is still healthy and reports the ledger.
        conn = HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/v1/healthz")
        health = json.loads(conn.getresponse().read())
        conn.close()
        assert health["memory"]["budget_bytes"] == 10_000
        assert health["memory"]["denials"] >= 1
    service.close()
