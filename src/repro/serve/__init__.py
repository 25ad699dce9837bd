"""``repro.serve`` — a multi-tenant asyncio query service.

The network front for the engine's existing below-the-wire machinery:
priority admission with shedding, deadlines/cancellation, Prometheus
exposition, and the typed
``SessionConfig``/``QueryResult`` API. Stdlib asyncio only — no new
runtime dependencies.

Quick start::

    from repro.serve import QueryService, ServerThread
    from repro.sql import Catalog, Session

    service = QueryService(Session(Catalog({"t": table})))
    with ServerThread(service) as handle:
        ...  # POST {handle.address}/v1/execute

or from a shell: ``python -m repro.serve --port 8080``.
"""

from repro.serve.server import QueryServer, ServerThread
from repro.serve.service import QueryService
from repro.serve.tenants import (
    DEFAULT_POLICY,
    TenantPolicy,
    TenantRegistry,
    TenantStats,
)

__all__ = [
    "DEFAULT_POLICY",
    "QueryServer",
    "QueryService",
    "ServerThread",
    "TenantPolicy",
    "TenantRegistry",
    "TenantStats",
]
