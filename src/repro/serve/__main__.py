"""``python -m repro.serve`` — stand up the query service.

Engine configuration comes from ``REPRO_*`` environment variables via
:meth:`~repro.sql.config.SessionConfig.from_env` (budget, gateway
sizing, tracing...); serving knobs are flags. Window groups evaluate
serially on the service's pool threads, so concurrency comes from the
gateway admitting several queries at once. Without
``--tenants`` every tenant runs under the default policy; the JSON
file maps tenant ids to policies::

    {"dashboard": {"priority": "interactive", "rate": 50, "burst": 100},
     "etl":       {"priority": "batch", "rate": 5, "max_concurrent": 2}}

The demo catalog is the TPC-H ``lineitem`` generator (the same table
the benchmarks use), sized by ``--rows``.

Lifecycle signals:

* ``SIGTERM`` / ``SIGINT`` — graceful drain: stop accepting, let
  in-flight requests finish (up to ``--drain-timeout`` seconds), then
  exit 0 so orchestrators see a clean shutdown;
* ``SIGHUP`` — hot-reload the ``--tenants`` policy file. The new file
  is parsed and validated *before* the swap; a malformed file logs the
  error and keeps the old policies — the server never crashes or drops
  its limits because of a bad reload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Dict

from repro.serve.server import QueryServer
from repro.serve.service import QueryService
from repro.serve.tenants import TenantPolicy, TenantRegistry
from repro.sql import Catalog, Session, SessionConfig


def _load_tenants(path: str) -> Dict[str, TenantPolicy]:
    with open(path) as handle:
        raw = json.load(handle)
    return {name: TenantPolicy(**spec) for name, spec in raw.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the window-aggregate engine over HTTP.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listening port (0 = ephemeral)")
    parser.add_argument("--rows", type=int, default=20_000,
                        help="rows in the demo lineitem table")
    parser.add_argument("--tenants", metavar="FILE",
                        help="JSON file of tenant policies")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to wait for in-flight requests "
                             "on SIGTERM/SIGINT before cancelling")
    args = parser.parse_args(argv)

    from repro.tpch import lineitem
    catalog = Catalog({"lineitem": lineitem(args.rows)})
    config = SessionConfig.from_env()
    session = Session(catalog, config=config)
    tenants = TenantRegistry(
        policies=_load_tenants(args.tenants) if args.tenants else None,
        clock=session.clock)
    service = QueryService(session, tenants=tenants, own_session=True)
    server = QueryServer(service, host=args.host, port=args.port)

    def reload_tenants() -> None:
        if not args.tenants:
            print("SIGHUP: no --tenants file configured, ignoring",
                  file=sys.stderr, flush=True)
            return
        try:
            policies = _load_tenants(args.tenants)
        except Exception as exc:  # bad JSON/policy: keep old policies
            print(f"SIGHUP: reload of {args.tenants} failed "
                  f"({exc}); keeping current tenant policies",
                  file=sys.stderr, flush=True)
            return
        tenants.replace_policies(policies)
        print(f"SIGHUP: reloaded {len(policies)} tenant policies "
              f"from {args.tenants}", file=sys.stderr, flush=True)

    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGHUP, reload_tenants)
        except NotImplementedError:
            pass  # platform without loop signal support
        await server.start()
        print(f"repro.serve listening on "
              f"http://{args.host}:{server.port} "
              f"(lineitem rows={args.rows}, "
              f"gateway slots={config.max_concurrent})", flush=True)
        await stop.wait()
        print(f"draining (timeout {args.drain_timeout:g}s)",
              file=sys.stderr, flush=True)
        await server.drain(timeout=args.drain_timeout)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # Signal handlers not installable (non-main thread / platform):
        # fall back to the abrupt-but-clean KeyboardInterrupt path.
        print("shutting down", file=sys.stderr)
    finally:
        service.close()
    print("drained, bye", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
