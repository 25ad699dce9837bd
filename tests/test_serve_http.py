"""End-to-end HTTP tests for ``repro.serve`` over real sockets."""

import contextlib
import datetime
import json
import threading
import time
from http.client import HTTPConnection

import pytest

import repro.serve.server
import repro.serve.service
from repro.resilience import FaultInjector
from repro.serve import (
    QueryService,
    ServerThread,
    TenantPolicy,
    TenantRegistry,
)
from repro.sql import Catalog, Session, SessionConfig
from repro.sql.result import QueryResult
from repro.table import DataType, Table

SQL = ("SELECT g, sum(v) OVER (PARTITION BY g ORDER BY v "
       "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM t")


def _catalog():
    table = Table.from_dict({
        "g": (DataType.INT64, [1, 1, 2, 2, 2]),
        "v": (DataType.INT64, [5, 3, 8, 1, 4]),
        "d": (DataType.DATE, [datetime.date(2024, 1, i + 1)
                              for i in range(5)]),
    })
    return Catalog({"t": table})


def _special_catalog():
    """One of each value the wire format has to rewrite or escape."""
    return Catalog({"w": Table.from_dict({
        "f": (DataType.FLOAT64, [1.5, None, float("nan"), float("inf")]),
        "d": (DataType.DATE, [datetime.date(1998, 12, 1), None,
                              datetime.date(1, 1, 1),
                              datetime.date(9999, 12, 31)]),
        "s": (DataType.STRING, ['a"b', None, "\\", "é"]),
    })})


@pytest.fixture(scope="module")
def server():
    session = Session(_catalog(), config=SessionConfig())
    tenants = TenantRegistry(
        policies={"blocked": TenantPolicy(rate=0.0),
                  "batchy": TenantPolicy(priority="batch")},
        clock=session.clock)
    service = QueryService(session, tenants=tenants, own_session=True)
    with ServerThread(service) as handle:
        yield handle
    service.close()


def _request(server, method, path, payload=None, headers=None,
             raw_body=None):
    """One request on a fresh connection → (status, headers, body)."""
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        body = raw_body
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json",
                              **(headers or {})})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


def _json(server, method, path, payload=None, headers=None):
    status, _, body = _request(server, method, path, payload, headers)
    return status, json.loads(body)


class TestExecute:
    def test_execute_returns_full_result(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": SQL})
        assert status == 200
        assert out["columns"] == ["g", "s"]
        assert out["types"] == ["int64", "int64"]
        assert out["row_count"] == 5
        assert out["rows"][0] == [1, 8]
        assert out["tenant"] == "anonymous"
        assert out["priority"] == "interactive"
        assert out["stats"]["outcome"] == "ok"
        assert out["stats"]["elapsed_seconds"] >= 0

    def test_date_columns_serialize_to_iso(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT d FROM t"})
        assert status == 200
        assert out["rows"][0] == ["2024-01-01"]

    def test_body_rows_equal_in_process_to_dict(self):
        sql = "SELECT f, d, s FROM w"
        service = QueryService(Session(_special_catalog()),
                               own_session=True)
        try:
            with ServerThread(service) as handle:
                status, out = _json(handle, "POST", "/v1/execute",
                                    {"sql": sql})
        finally:
            service.close()
        assert status == 200
        with Session(_special_catalog()) as session:
            want = json.loads(json.dumps(
                session.execute(sql).to_dict(), allow_nan=False))
        assert out["rows"] == want["rows"]
        assert out["rows"] == [[1.5, "1998-12-01", 'a"b'],
                               [None, None, None],
                               [None, "0001-01-01", "\\"],
                               [None, "9999-12-31", "é"]]

    def test_serialization_runs_on_a_pool_thread(self, server,
                                                 monkeypatch):
        """The event loop only writes bytes: the result is turned into
        a dict and encoded on the pool thread that ran the query."""
        seen = {"to_dict": [], "json_body": []}
        to_dict = QueryResult.to_dict

        def spy_to_dict(self, *args, **kwargs):
            seen["to_dict"].append(threading.current_thread().name)
            return to_dict(self, *args, **kwargs)

        def spy(module):
            encode = module.json_body

            def json_body(payload):
                seen["json_body"].append(threading.current_thread().name)
                return encode(payload)
            return json_body

        monkeypatch.setattr(QueryResult, "to_dict", spy_to_dict)
        for module in (repro.serve.server, repro.serve.service):
            monkeypatch.setattr(module, "json_body", spy(module))
        status, _ = _json(server, "POST", "/v1/execute", {"sql": SQL})
        assert status == 200
        assert seen["to_dict"] and seen["json_body"]
        for name in seen["to_dict"] + seen["json_body"]:
            assert name.startswith("repro-serve-pool"), seen

    def test_trace_flag_returns_span_tree(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": SQL, "trace": True})
        assert status == 200
        assert out["trace"]["name"] == "query"

    def test_priority_header_is_capped_by_policy(self, server):
        _, out = _json(server, "POST", "/v1/execute", {"sql": SQL},
                       headers={"x-repro-tenant": "batchy",
                                "x-repro-priority": "interactive"})
        assert out["priority"] == "batch"

    def test_body_priority_downgrades(self, server):
        _, out = _json(server, "POST", "/v1/execute",
                       {"sql": SQL, "priority": "batch"})
        assert out["priority"] == "batch"


class TestParams:
    def test_positional_params_bind(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT g FROM t WHERE v > $1",
                             "params": [3]})
        assert status == 200
        assert out["rows"] == [[1], [2], [2]]

    def test_named_params_bind(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT g FROM t WHERE v > :lo "
                                    "AND v < :hi",
                             "params": {"lo": 2, "hi": 6}})
        assert status == 200
        assert out["rows"] == [[1], [1], [2]]

    def test_param_type_mismatch_422(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT g FROM t WHERE v > $1",
                             "params": ["three"]})
        assert status == 422
        assert out["error"]["code"] == "PARAM_BINDING"
        assert "$1" in out["error"]["message"]

    def test_param_arity_mismatch_422(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT g FROM t WHERE v > $1",
                             "params": [1, 2, 3]})
        assert status == 422
        assert out["error"]["code"] == "PARAM_BINDING"

    def test_scalar_params_field_400(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT g FROM t WHERE v > $1",
                             "params": 3})
        assert status == 400
        assert out["error"]["code"] == "INVALID_CONFIG"

    def test_unbound_placeholder_without_params_422(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT g FROM t WHERE v > $1"})
        assert status == 422
        assert out["error"]["code"] == "PARAM_BINDING"


class TestTables:
    def test_tables_lists_catalog_schemas(self, server):
        status, out = _json(server, "GET", "/v1/tables")
        assert status == 200
        assert out["tenant"]
        (schema,) = out["tables"]
        assert schema["name"] == "t"
        assert schema["row_count"] == 5
        assert {"name": "g", "dtype": "int64"} in schema["columns"]

    def test_tables_rejects_post(self, server):
        status, headers, _ = _request(server, "POST", "/v1/tables",
                                      payload={})
        assert status == 405
        assert headers["Allow"] == "GET"


class TestErrors:
    def test_unknown_path_404(self, server):
        status, out = _json(server, "GET", "/nope")
        assert status == 404
        assert out["error"]["code"] == "NOT_FOUND"

    def test_wrong_method_405_with_allow(self, server):
        status, headers, body = _request(server, "GET", "/v1/execute")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert json.loads(body)["error"]["code"] == "METHOD_NOT_ALLOWED"

    def test_malformed_json_400(self, server):
        status, _, body = _request(server, "POST", "/v1/execute",
                                   raw_body=b"not json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "INVALID_CONFIG"

    def test_missing_sql_400(self, server):
        status, out = _json(server, "POST", "/v1/execute", {})
        assert status == 400
        assert out["error"]["code"] == "INVALID_CONFIG"

    def test_sql_syntax_error_400(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELEC nope"})
        assert status == 400
        assert out["error"]["code"] == "SQL_SYNTAX"
        assert out["error"]["type"] == "SqlSyntaxError"

    def test_unknown_table_400(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": "SELECT x FROM missing"})
        assert status == 400
        assert out["error"]["code"] == "SQL_ANALYSIS"

    def test_bad_timeout_400(self, server):
        status, out = _json(server, "POST", "/v1/execute",
                            {"sql": SQL, "timeout_ms": -5})
        assert status == 400
        assert out["error"]["code"] == "INVALID_CONFIG"

    def test_rate_limited_tenant_429_with_retry_after(self, server):
        status, headers, body = _request(
            server, "POST", "/v1/execute", {"sql": SQL},
            headers={"x-repro-tenant": "blocked"})
        assert status == 429
        assert float(headers["Retry-After"]) >= 1.0
        out = json.loads(body)
        assert out["error"]["code"] == "TENANT_RATE_LIMITED"

    def test_query_timeout_408(self, server):
        status, out = _json(
            server, "POST", "/v1/execute",
            {"sql": SQL, "timeout_ms": 0.0001})
        # Sub-microsecond deadline: either the clock ticks past it
        # (408) or the tiny query beats it (200); both are valid.
        assert status in (200, 408)
        if status == 408:
            assert out["error"]["code"] == "QUERY_TIMEOUT"


class TestExplain:
    def test_explain_plan(self, server):
        status, out = _json(server, "POST", "/v1/explain",
                            {"sql": SQL})
        assert status == 200
        assert out["analyze"] is False
        assert "Window" in out["plan"]
        assert "PlanCache" in out["plan"]

    def test_explain_analyze(self, server):
        status, out = _json(server, "POST", "/v1/explain",
                            {"sql": SQL, "analyze": True})
        assert status == 200
        assert out["analyze"] is True
        assert "actual" in out["plan"]


class TestOps:
    def test_metrics_exposition(self, server):
        _json(server, "POST", "/v1/execute", {"sql": SQL})
        status, headers, body = _request(server, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "repro_http_requests_total" in text
        assert "repro_http_request_seconds_count" in text
        assert ('repro_http_serialize_seconds_count'
                '{endpoint="/v1/execute"}') in text
        assert "repro_plan_cache_hits_total" in text
        assert "repro_tenant_admitted_total" in text

    def test_healthz(self, server):
        status, out = _json(server, "GET", "/v1/healthz")
        assert status == 200
        assert out["status"] == "ok"
        assert out["gateway"]["max_concurrent"] >= 1
        # One ledger: the plan cache's bytes are the memory tag's.
        assert (out["memory"]["by_tag"].get("plan_cache", 0)
                == out["plan_cache"]["bytes_in_use"])
        tenants = {t["tenant"] for t in out["tenants"]}
        assert "anonymous" in tenants
        assert set(out) == {"status", "gateway", "tenants", "plan_cache",
                            "memory"}

    def test_keep_alive_reuses_connection(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(3):
                conn.request("POST", "/v1/execute",
                             body=json.dumps({"sql": SQL}),
                             headers={"Content-Type":
                                      "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_connection_close_honored(self, server):
        status, headers, _ = _request(
            server, "GET", "/v1/healthz",
            headers={"Connection": "close"})
        assert status == 200
        assert headers["Connection"] == "close"


def _scraped(server, name):
    """The value of the unlabelled series ``name`` in a /v1/metrics
    scrape."""
    _, _, body = _request(server, "GET", "/v1/metrics")
    for line in body.decode("utf-8").splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{name} missing from the scrape")


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


class TestDegradation:
    def test_fallbacks_counter_counts_degraded_calls(self):
        faults = FaultInjector()
        session = Session(_catalog(), config=SessionConfig(faults=faults))
        service = QueryService(session, own_session=True)
        try:
            with ServerThread(service) as handle:
                status, healthy = _json(handle, "POST", "/v1/execute",
                                        {"sql": SQL})
                assert status == 200
                assert _scraped(handle, "repro_fallbacks_total") == 0
                # A call that builds a new tree, with its build faulted:
                # it degrades to naive and still answers.
                faults.plan("structure.build", times=1)
                status, out = _json(handle, "POST", "/v1/execute", {
                    "sql": "SELECT g, count(DISTINCT v) OVER (PARTITION "
                           "BY g ORDER BY v ROWS BETWEEN 1 PRECEDING AND "
                           "CURRENT ROW) AS c FROM t"})
                assert status == 200
                assert out["rows"] == [[1, 2], [1, 1], [2, 2], [2, 1],
                                       [2, 2]]
                assert faults.fired("structure.build") == 1
                assert _scraped(handle, "repro_fallbacks_total") == 1
                _, health = _json(handle, "GET", "/v1/healthz")
                assert health["status"] == "ok"
        finally:
            service.close()


class TestAdmission:
    def test_interactive_tenant_admitted_before_queued_batch_tenant(
            self, monkeypatch):
        """With the gateway's one slot held, an ``etl`` (batch) request
        queues first and a ``dash`` (interactive) request after it: on
        release, ``dash`` is admitted first."""
        session = Session(_catalog(), config=SessionConfig(
            max_concurrent=1, max_queue=4))
        tenants = TenantRegistry(
            policies={"dash": TenantPolicy(priority="interactive"),
                      "etl": TenantPolicy(priority="batch")},
            clock=session.clock)
        service = QueryService(session, tenants=tenants, own_session=True)
        gateway = session.gateway
        admit = gateway.admit
        admitted = []

        @contextlib.contextmanager
        def recording_admit(context=None, priority="interactive"):
            with admit(context, priority=priority):
                admitted.append(priority)
                yield

        responses = {}

        def client(tenant):
            responses[tenant] = _json(handle, "POST", "/v1/execute",
                                      {"sql": SQL},
                                      {"x-repro-tenant": tenant})

        try:
            with ServerThread(service) as handle:
                with admit():
                    monkeypatch.setattr(gateway, "admit", recording_admit)
                    etl = threading.Thread(target=client, args=("etl",))
                    etl.start()
                    _wait_until(lambda: gateway.stats().queued_now.get(
                        "batch"))
                    dash = threading.Thread(target=client,
                                            args=("dash",))
                    dash.start()
                    _wait_until(lambda: gateway.stats().queued_now.get(
                        "interactive"))
                for thread in (etl, dash):
                    thread.join(timeout=30)
        finally:
            service.close()
        assert admitted == ["interactive", "batch"]
        for tenant, priority in (("dash", "interactive"),
                                 ("etl", "batch")):
            status, out = responses[tenant]
            assert status == 200
            assert (out["tenant"], out["priority"]) == (tenant, priority)


class TestMetricsRace:
    def test_concurrent_scrapes_race_queries(self, server):
        """/v1/metrics stays consistent while queries run (satellite:
        scrape-time collectors read live gateway/tenant/cache state
        under their own locks — no torn exposition)."""
        errors = []
        stop = threading.Event()

        def run_queries():
            try:
                while not stop.is_set():
                    status, _ = _json(server, "POST", "/v1/execute",
                                      {"sql": SQL})
                    assert status == 200
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def scrape():
            try:
                for _ in range(10):
                    status, _, body = _request(server, "GET",
                                               "/v1/metrics")
                    assert status == 200
                    text = body.decode("utf-8")
                    # Well-formed exposition: every non-comment line is
                    # "name[{labels}] value" and families stay sorted.
                    for line in text.splitlines():
                        if line and not line.startswith("#"):
                            name, value = line.rsplit(" ", 1)
                            assert name
                            float(value)
                    assert text.endswith("\n")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        workers = [threading.Thread(target=run_queries)
                   for _ in range(2)]
        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        for t in workers + scrapers:
            t.start()
        for t in scrapers:
            t.join()
        stop.set()
        for t in workers:
            t.join()
        assert errors == []
