"""The tenant-aware query service the HTTP server fronts.

:class:`QueryService` binds together one engine
:class:`~repro.sql.session.Session` (gateway, caches,
metrics), a :class:`~repro.serve.tenants.TenantRegistry`, and a
dedicated :class:`~concurrent.futures.ThreadPoolExecutor`. The engine
is synchronous, GIL-bound numpy work; every query runs on the executor
via ``loop.run_in_executor`` so the asyncio event loop never blocks —
it keeps accepting connections, answering ``/v1/metrics`` scrapes and
shedding overload while queries grind. The same pool call serializes
the result, so the loop gets finished response bytes.

Request lifecycle (documented in DESIGN.md §9)::

    tenant bucket/quota ──► gateway admission ──► plan cache ──►
    [one pool call: execute ──► QueryResult.to_dict() ──► json_body]
    ──► response bytes, written by the event loop

The executor pool is sized to the gateway's worst case (active slots +
both priority queues full) so the *gateway* stays the component that
decides shedding — the pool itself never becomes a hidden second
queue. Per-request deadlines arrive as ``timeout_ms`` and flow into
the existing cancellation machinery as ``QueryOptions.timeout``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.serve.tenants import TenantRegistry
from repro.serve.wire import (
    field_bool,
    field_number,
    field_str,
    json_body,
    parse_json_body,
)
from repro.sql import QueryOptions, Session

__all__ = ["QueryService"]

#: Tenant id header; absent requests serve as this pseudo-tenant.
TENANT_HEADER = "x-repro-tenant"
ANONYMOUS_TENANT = "anonymous"
#: Optional priority request header (capped by the tenant's policy).
PRIORITY_HEADER = "x-repro-priority"


class QueryService:
    """Tenant admission + executor offload around one Session."""

    def __init__(self, session: Session,
                 tenants: Optional[TenantRegistry] = None,
                 pool_size: Optional[int] = None,
                 own_session: bool = False) -> None:
        self.session = session
        self.tenants = tenants if tenants is not None else TenantRegistry(
            clock=session.clock)
        self._own_session = own_session
        config = session.config
        if pool_size is None:
            # Gateway worst case: every slot busy and both class queues
            # full. One pool thread per potential occupant keeps the
            # gateway (not the pool) in charge of queueing/shedding.
            pool_size = config.max_concurrent + 2 * config.max_queue + 2
        self.pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-serve-pool")
        self._requests = None
        self._latency = None
        self._serialize = None
        if session.metrics is not None:
            m = session.metrics
            self._requests = m.counter(
                "repro_http_requests_total",
                "HTTP requests served, by endpoint and status.",
                ["endpoint", "status"])
            self._latency = m.histogram(
                "repro_http_request_seconds",
                "HTTP request wall time by endpoint.", ["endpoint"])
            self._serialize = m.histogram(
                "repro_http_serialize_seconds",
                "Result serialization (to_dict + JSON encode) time by "
                "endpoint.", ["endpoint"])
            t_admitted = m.counter(
                "repro_tenant_admitted_total",
                "Requests past tenant limits, by tenant.", ["tenant"])
            t_limited = m.counter(
                "repro_tenant_rate_limited_total",
                "Requests rejected by tenant token buckets.", ["tenant"])
            t_quota = m.counter(
                "repro_tenant_quota_rejected_total",
                "Requests rejected by tenant concurrency quotas.",
                ["tenant"])
            t_flight = m.gauge(
                "repro_tenant_in_flight",
                "Tenant queries currently in flight.", ["tenant"])

            def collect() -> None:
                for snap in self.tenants.stats():
                    t_admitted.set_total(snap.admitted,
                                         tenant=snap.tenant)
                    t_limited.set_total(snap.rate_limited,
                                        tenant=snap.tenant)
                    t_quota.set_total(snap.quota_rejected,
                                      tenant=snap.tenant)
                    t_flight.set(snap.in_flight, tenant=snap.tenant)

            m.add_collector(collect)

    # ------------------------------------------------------------------
    # request handlers (async; called by the server)
    # ------------------------------------------------------------------
    async def execute(self, body: bytes, tenant: str,
                      requested_priority: Optional[str]) -> bytes:
        """``POST /v1/execute`` — run one statement; returns the JSON
        response body, encoded on the pool thread that ran the query.

        Body: ``{"sql": ..., "params"?: [...] | {...},
        "timeout_ms"?: ..., "priority"?: ..., "trace"?: bool}``.
        Header priority applies when the body gives none; both are
        capped by the tenant's policy.

        ``params`` turns the statement into a prepared execution: the
        SQL may use ``$1``/``:name`` placeholders, values are bound
        arity- and type-checked (positional placeholders take a JSON
        array, named ones a JSON object; mismatches answer 422 with
        code ``PARAM_BINDING``), and re-executions of the same text
        hit the plan cache."""
        payload = parse_json_body(body)
        sql = field_str(payload, "sql", required=True)
        params = payload.get("params")
        if params is not None and not isinstance(params, (list, dict)):
            raise ConfigurationError(
                "field 'params' must be an array (positional) or "
                "object (named)")
        timeout = _timeout_seconds(field_number(payload, "timeout_ms"))
        trace = field_bool(payload, "trace", default=False)
        requested = field_str(payload, "priority") or requested_priority
        with self.tenants.admit(tenant, requested) as priority:
            options = QueryOptions(timeout=timeout, priority=priority,
                                   trace=True if trace else None)

            def run() -> bytes:
                if params is None:
                    result = self.session.execute(sql, options=options)
                else:
                    result = self.session.prepare(sql).execute(
                        params, options=options)
                started = time.perf_counter()
                out = result.to_dict(include_trace=trace)
                out["tenant"] = tenant
                out["priority"] = priority
                encoded = json_body(out)
                if self._serialize is not None:
                    self._serialize.observe(time.perf_counter() - started,
                                            endpoint="/v1/execute")
                return encoded

            return await self._offload(run)

    async def tables(self, tenant: str) -> Dict[str, Any]:
        """``GET /v1/tables`` — the session catalog's table schemas."""
        return {
            "tenant": tenant,
            "tables": [schema.to_dict()
                       for schema in self.session.tables()],
        }

    async def explain(self, body: bytes, tenant: str,
                      requested_priority: Optional[str]
                      ) -> Dict[str, Any]:
        """``POST /v1/explain`` — the plan, optionally ANALYZE."""
        payload = parse_json_body(body)
        sql = field_str(payload, "sql", required=True)
        analyze = field_bool(payload, "analyze", default=False)
        timeout = _timeout_seconds(field_number(payload, "timeout_ms"))
        requested = field_str(payload, "priority") or requested_priority
        with self.tenants.admit(tenant, requested) as priority:
            options = QueryOptions(timeout=timeout, priority=priority)
            plan = await self._offload(
                lambda: self.session.explain(sql, analyze=analyze,
                                             options=options))
        return {"plan": plan, "analyze": analyze, "tenant": tenant,
                "priority": priority}

    async def metrics(self) -> str:
        """``GET /v1/metrics`` — deterministic Prometheus exposition.

        Scrape-time collectors read live component stats; cheap enough
        to run on the event loop without offloading."""
        return self.session.metrics_text()

    async def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus gateway, tenant, plan
        cache and memory state."""
        gateway = self.session.gateway.stats()
        return {
            "status": "ok",
            "gateway": {
                "max_concurrent": gateway.max_concurrent,
                "active": gateway.active,
                "queued": dict(gateway.queued_now),
                "admitted": gateway.admitted,
                "shed": gateway.shed,
            },
            "tenants": [t.to_dict() for t in self.tenants.stats()],
            "plan_cache": self.session.plan_cache.stats().to_dict(),
            "memory": self.session.memory.stats().to_dict(),
        }

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _offload(self, fn) -> Any:
        """Run a blocking engine call on the service pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.pool, fn)

    def observe(self, endpoint: str, status: int,
                elapsed: float) -> None:
        """Record one finished HTTP request (called by the server)."""
        if self._requests is not None:
            self._requests.inc(endpoint=endpoint, status=str(status))
            self._latency.observe(elapsed, endpoint=endpoint)

    def close(self) -> None:
        self.pool.shutdown(wait=True)
        if self._own_session:
            self.session.close()


def _timeout_seconds(timeout_ms: Optional[float]) -> Optional[float]:
    if timeout_ms is None:
        return None
    if timeout_ms <= 0:
        raise ConfigurationError(
            f"timeout_ms must be > 0, got {timeout_ms:g}")
    return timeout_ms / 1000.0
