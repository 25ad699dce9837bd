"""Load-generate the ``repro.serve`` HTTP service end to end.

Three questions about the serving tier, answered over real sockets
(:class:`~repro.serve.ServerThread` + ``http.client`` keep-alive
connections on worker threads):

* **latency** — p50/p99 per-request wall time as concurrent clients
  grow on a warm, repeated-query workload (plan cache + structure
  cache both hot after the first hit);
* **overload** — with a deliberately tiny gateway, does the service
  shed (429/503) instead of stacking latency; the per-tenant admission
  shares of an interactive and a batch tenant are recorded (that
  interactive outranks batch is checked deterministically in
  ``tests/test_serve_http.py``);
* **plan cache** — the repeated-query workload must show a non-zero
  hit rate through the full HTTP path (fingerprint → cached AST).

Results land in ``benchmarks/results/BENCH_serving.json``.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from conftest import emit
from repro.bench.harness import BenchSeries, save_series_json, scaled
from repro.serve import QueryService, ServerThread, TenantPolicy, TenantRegistry
from repro.sql import Catalog, Session, SessionConfig
from repro.tpch import lineitem

#: Repeated statement → plan-cache hits after the first request.
SQL = ("SELECT l_orderkey, "
       "sum(l_extendedprice) OVER (ORDER BY l_shipdate "
       "ROWS BETWEEN 100 PRECEDING AND CURRENT ROW) FROM lineitem")


def _post(conn: HTTPConnection, path: str, payload: dict,
          headers: dict) -> int:
    body = json.dumps(payload).encode("utf-8")
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json", **headers})
    response = conn.getresponse()
    response.read()  # drain so keep-alive can reuse the socket
    return response.status


def _get_json(port: int, path: str) -> dict:
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _client(port: int, requests: int, tenant: str, latencies: list,
            statuses: list) -> None:
    """One keep-alive client issuing ``requests`` sequential queries."""
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"x-repro-tenant": tenant}
    try:
        for _ in range(requests):
            start = time.perf_counter()
            status = _post(conn, "/v1/execute", {"sql": SQL}, headers)
            latencies.append(time.perf_counter() - start)
            statuses.append(status)
    finally:
        conn.close()


def _run_clients(port: int, clients: int, requests: int,
                 tenants=("bench",)):
    """Fan out keep-alive clients; returns (latencies, statuses) with
    per-thread lists merged (append-only, so no locking needed)."""
    lat = [[] for _ in range(clients)]
    st = [[] for _ in range(clients)]
    threads = [
        threading.Thread(target=_client,
                         args=(port, requests, tenants[i % len(tenants)],
                               lat[i], st[i]))
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return ([x for sub in lat for x in sub],
            [x for sub in st for x in sub])


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(int(q * (len(ordered) - 1) + 0.5), len(ordered) - 1)
    return ordered[index]


@pytest.fixture(scope="module")
def rows():
    return scaled(5_000)


def test_serving_load(rows):
    """Latency vs concurrency, overload shedding, plan-cache hits."""
    series = BenchSeries(
        f"Serving — repro.serve over lineitem (n = {rows})",
        ["stage", "clients", "requests", "ok", "shed",
         "p50_ms", "p99_ms", "rps"])

    # ------------------------------------------------------------------
    # Stage 1: p50/p99 vs concurrent clients, ample gateway.
    # ------------------------------------------------------------------
    config = SessionConfig(max_concurrent=8, max_queue=32)
    session = Session(Catalog({"lineitem": lineitem(rows)}),
                      config=config)
    service = QueryService(session, own_session=True)
    with ServerThread(service) as handle:
        _run_clients(handle.port, 1, 2)  # warm caches + pool threads
        for clients in (1, 4, 8):
            requests = max(12 // clients, 3)
            start = time.perf_counter()
            latencies, statuses = _run_clients(handle.port, clients,
                                               requests)
            wall = time.perf_counter() - start
            ok = sum(1 for s in statuses if s == 200)
            shed = sum(1 for s in statuses if s in (429, 503))
            series.add("latency", clients, len(statuses), ok, shed,
                       round(_percentile(latencies, 0.50) * 1e3, 3),
                       round(_percentile(latencies, 0.99) * 1e3, 3),
                       round(len(statuses) / wall, 2))
            assert ok == len(statuses), f"unexpected statuses {statuses}"
        health = _get_json(handle.port, "/v1/healthz")
    service.close()

    plan_cache = health["plan_cache"]
    hit_rate = plan_cache["hit_ratio"]
    series.meta["plan_cache"] = plan_cache
    assert plan_cache["hits"] > 0 and hit_rate > 0.5, plan_cache

    # ------------------------------------------------------------------
    # Stage 2: overload a tiny gateway; the service must shed, and the
    # interactive / batch tenants' admission shares are recorded.
    # ------------------------------------------------------------------
    config = SessionConfig(max_concurrent=1, max_queue=1,
                           queue_timeout=0.05)
    session = Session(Catalog({"lineitem": lineitem(rows)}),
                      config=config)
    tenants = TenantRegistry(
        policies={"dash": TenantPolicy(priority="interactive"),
                  "etl": TenantPolicy(priority="batch")},
        clock=session.clock)
    service = QueryService(session, tenants=tenants, own_session=True)
    with ServerThread(service) as handle:
        _run_clients(handle.port, 1, 1, tenants=("dash",))  # warm
        per_tenant = {}
        results = {name: ([], []) for name in ("dash", "etl")}

        def hammer(name: str) -> None:
            lat, st = _run_clients(handle.port, 6, 6, tenants=(name,))
            results[name][0].extend(lat)
            results[name][1].extend(st)

        start = time.perf_counter()
        threads = [threading.Thread(target=hammer, args=(name,))
                   for name in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        for name, (lat, st) in results.items():
            ok = sum(1 for s in st if s == 200)
            shed = sum(1 for s in st if s in (429, 503))
            per_tenant[name] = (ok, shed, len(st))
            series.add(f"overload:{name}", 6, len(st), ok, shed,
                       round(_percentile(lat, 0.50) * 1e3, 3),
                       round(_percentile(lat, 0.99) * 1e3, 3),
                       round(len(st) / wall, 2))
        health = _get_json(handle.port, "/v1/healthz")
    service.close()

    dash_ok, dash_shed, dash_n = per_tenant["dash"]
    etl_ok, etl_shed, etl_n = per_tenant["etl"]
    total_shed = dash_shed + etl_shed
    series.meta["gateway"] = health["gateway"]
    series.meta["shed_rate"] = round(total_shed / (dash_n + etl_n), 4)
    series.meta["admitted_share"] = {"dash": round(dash_ok / dash_n, 4),
                                     "etl": round(etl_ok / etl_n, 4)}
    series.note("overload: gateway 1 slot + 1-deep queues; 12 clients "
                "must shed; per-tenant admission shares are recorded, "
                "not asserted (a handful of racy admissions)")
    assert total_shed > 0, "overload stage never shed"

    emit(series)
    path = save_series_json(series, filename="BENCH_serving.json")
    print(f"  saved: {path}")
