"""Per-layer microbenchmarks: the same fixed probes in every traced
run, whichever workload it traces.

Each probe calls one layer's public functions directly, inside a
benchmark-side span, on seeded ``lineitem`` data. Targets are imported
inside the probe: when an entry point has moved, that probe's metrics
are ``null`` with the reason beside them and everything else still
runs. The untraced end-to-end run never imports this module.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from benchmarks.perf import OUT
from benchmarks.perf.spans import Recorder
from benchmarks.perf.workloads import raw_columns
from benchmarks.perf.statements import (
    SERVE_CLASSES,
    SERVE_ROWS,
    WINDOW_ROWS,
    WINDOW_STATEMENTS,
)

#: Statements of the budgeted-cache probe: four cheap structures, so a
#: half-sized budget has to evict and reload without costing a pass.
_BUDGETED = ("distinct", "median", "sumdistinct", "rank")
_WORKERS = min(os.cpu_count() or 1, 4)


class Context:
    """What every probe gets: the recorder and seeded input data."""

    def __init__(self, rec: Recorder, seed: int, smoke: bool) -> None:
        from repro.tpch import lineitem
        self.rec = rec
        self.smoke = smoke
        self.n = 2_000 if smoke else WINDOW_ROWS
        self.table = lineitem(self.n, seed=seed)
        self.serve_table = lineitem(2_000 if smoke else SERVE_ROWS)
        self.sql = {s.name: s.sql for s in WINDOW_STATEMENTS}
        # Columns in window order (ORDER BY l_shipdate, stable), and the
        # 999 PRECEDING .. CURRENT ROW frame as half-open positions.
        raw = raw_columns(self.table)
        order = np.argsort(raw["l_shipdate"], kind="stable")
        self.sorted = {name: values[order] for name, values in raw.items()}
        position = np.arange(self.n, dtype=np.int64)
        self.lo = np.maximum(position - 999, 0)
        self.hi = position + 1

    def timed(self, name: str, layer: str, fn: Callable[[], Any],
              repeats: int = 3) -> Tuple[float, Any]:
        """Median milliseconds of ``fn`` over ``repeats`` spans, and its
        last return value."""
        samples, out = [], None
        for _ in range(1 if self.smoke else repeats):
            with self.rec.span(name, stmt=name, layer=layer) as span:
                out = fn()
            samples.append(span["duration_ms"])
        return statistics.median(samples), out

    def session(self, table: Any = None, **config: Any) -> Any:
        from repro.sql import Catalog, Session, SessionConfig
        return Session(Catalog({"lineitem": self.table if table is None
                                else table}),
                       config=SessionConfig(**config))


# ----------------------------------------------------------------------
# repro.sql
# ----------------------------------------------------------------------
def sql_frontend(ctx: Context) -> Dict[str, float]:
    """tokenize / parse / plan over the 28 statement texts."""
    from repro.sql import parse, tokenize
    from repro.sql.plan import plan_statement
    from repro.tpch import QUERIES, tpch_catalog
    texts = list(ctx.sql.values()) + list(QUERIES.values())
    catalog = tpch_catalog(0.001)  # planning reads schemas, not rows
    tokenize_ms, _ = ctx.timed("tokenize", "repro.sql",
                               lambda: [list(tokenize(t)) for t in texts])
    parse_ms, statements = ctx.timed("parse", "repro.sql",
                                     lambda: [parse(t) for t in texts])
    plan_ms, _ = ctx.timed(
        "plan.plan_statement", "repro.sql",
        lambda: [plan_statement(s, catalog) for s in statements])
    return {"sql.tokenize_ms": tokenize_ms, "sql.parse_ms": parse_ms,
            "sql.plan_ms": plan_ms}


def sql_prepare_bind(ctx: Context) -> Dict[str, float]:
    """``Session.prepare`` + bound execute against the same statement
    with its literal inlined."""
    key = int(ctx.table["l_orderkey"].raw()[0])
    bound = SERVE_CLASSES["point"]
    literal = bound.replace("$1", str(key))
    with ctx.session() as session:
        session.execute(literal)
        session.prepare(bound).execute([key])
        plain_ms, _ = ctx.timed("Session.execute(literal)", "repro.sql",
                                lambda: session.execute(literal), 9)
        bound_ms, _ = ctx.timed(
            "Session.prepare+execute", "repro.sql",
            lambda: session.prepare(bound).execute([key]), 9)
    return {"sql.prepare_bind_ms": bound_ms - plain_ms}


def sql_exec_overhead(ctx: Context) -> Dict[str, float]:
    """``Session.execute`` minus a direct ``window_query`` of the same
    two calls over the same frame, both with warm structures."""
    from repro import (FrameSpec, StructureCache, WindowCall, WindowSpec,
                       current_row, preceding, window_query)
    from repro.window.frame import OrderItem
    spec = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(999), current_row()))
    calls = [WindowCall("count", ("l_partkey",), distinct=True),
             WindowCall("percentile_disc", ("l_extendedprice",),
                        fraction=0.5)]
    sql = ("SELECT count(DISTINCT l_partkey) OVER w, percentile_disc(0.5) "
           "WITHIN GROUP (ORDER BY l_extendedprice) OVER w FROM lineitem "
           "WINDOW w AS (ORDER BY l_shipdate ROWS BETWEEN 999 PRECEDING "
           "AND CURRENT ROW)")
    cache = StructureCache()
    try:
        window_query(ctx.table, calls, spec, cache=cache)
        operator_ms, _ = ctx.timed(
            "window_query", "repro.window",
            lambda: window_query(ctx.table, calls, spec, cache=cache), 5)
    finally:
        cache.close()
    with ctx.session() as session:
        session.execute(sql)
        execute_ms, _ = ctx.timed("Session.execute(window)", "repro.sql",
                                  lambda: session.execute(sql), 5)
    return {"window.operator_ms": operator_ms,
            "sql.exec_overhead_ms": execute_ms - operator_ms}


# ----------------------------------------------------------------------
# repro.window / repro.mst / repro.preprocess / repro.rangetree
# ----------------------------------------------------------------------
def window_bounds(ctx: Context) -> Dict[str, float]:
    """Frame-bound resolution, constant and per-row offsets."""
    from repro import FrameSpec, current_row, following, preceding
    from repro.window.bounds import resolve_bounds
    constant = FrameSpec.rows(preceding(999), current_row())
    per_row = FrameSpec.rows(preceding(ctx.sorted["l_quantity"] * 20),
                             following(ctx.sorted["l_suppkey"] % 50))
    ms, _ = ctx.timed("bounds.resolve_bounds", "repro.window",
                      lambda: (resolve_bounds(constant, ctx.n),
                               resolve_bounds(per_row, ctx.n)), 9)
    return {"window.bounds_ms": ms}


def mst_and_preprocess(ctx: Context) -> Dict[str, float]:
    """Tree build (plain / SUM-annotated) and the three batched probe
    kinds over one frame per row, plus the preprocessing they need."""
    from repro.mst.aggregates import SUM
    from repro.mst.build import build_levels_numpy
    from repro.mst.vectorized import (batched_aggregate, batched_count,
                                      batched_select)
    from repro.preprocess.occurrences import previous_occurrence
    from repro.preprocess.permutation import permutation_array
    from repro.sortutil import SortColumn
    lo, hi = ctx.lo, ctx.hi
    prev_ms, prev = ctx.timed(
        "previous_occurrence", "repro.preprocess",
        lambda: previous_occurrence(ctx.sorted["l_partkey"]))
    perm_ms, perm = ctx.timed(
        "permutation_array", "repro.preprocess",
        lambda: permutation_array(
            [SortColumn(ctx.sorted["l_extendedprice"])], ctx.n))
    keys = prev + 1  # "no previous occurrence" becomes key 0
    payload = ctx.sorted["l_quantity"].astype(np.float64)
    build_ms, levels = ctx.timed("build.build_levels_numpy", "repro.mst",
                                 lambda: build_levels_numpy(keys))
    build_agg_ms, annotated = ctx.timed(
        "build.build_levels_numpy(SUM)", "repro.mst",
        lambda: build_levels_numpy(keys, aggregate=SUM, payload=payload))
    by_value = build_levels_numpy(perm)
    count_ms, _ = ctx.timed(
        "vectorized.batched_count", "repro.mst",
        lambda: batched_count(levels, lo, hi, key_hi=lo + 1))
    aggregate_ms, _ = ctx.timed(
        "vectorized.batched_aggregate", "repro.mst",
        lambda: batched_aggregate(annotated, lo, hi, lo + 1, "sum"))
    middle = np.maximum(np.ceil(0.5 * (hi - lo)).astype(np.int64) - 1, 0)
    select_ms, _ = ctx.timed(
        "vectorized.batched_select", "repro.mst",
        lambda: batched_select(by_value, middle, lo, hi))
    arrays = levels.keys + [b for b in levels.bridges if b is not None]
    return {
        "preprocess.prev_occurrence_ms": prev_ms,
        "preprocess.permutation_ms": perm_ms,
        "mst.build_ms": build_ms, "mst.build_agg_ms": build_agg_ms,
        "mst.count_ms": count_ms, "mst.aggregate_ms": aggregate_ms,
        "mst.select_ms": select_ms,
        "mst.bytes": float(sum(a.nbytes for a in arrays)),
        "mst.levels": float(levels.height),
    }


def rangetree(ctx: Context) -> Dict[str, float]:
    """The layered DENSE_RANK index: build once, probe every frame."""
    from repro.preprocess.rankkeys import dense_rank_keys
    from repro.rangetree.dense import DenseRankIndex
    from repro.sortutil import SortColumn
    keys = dense_rank_keys([SortColumn(ctx.sorted["l_quantity"])], ctx.n)
    build_ms, index = ctx.timed("DenseRankIndex", "repro.rangetree",
                                lambda: DenseRankIndex(keys), 1)
    probe_ms, _ = ctx.timed(
        "DenseRankIndex.batched_dense_rank", "repro.rangetree",
        lambda: index.batched_dense_rank(ctx.lo, ctx.hi, keys))
    return {"rangetree.build_ms": build_ms, "rangetree.probe_ms": probe_ms}


# ----------------------------------------------------------------------
# repro.cache
# ----------------------------------------------------------------------
def cache_fingerprint(ctx: Context) -> Dict[str, float]:
    """First fingerprint of a table (later ones are memoised on it)."""
    from repro.cache.fingerprint import table_fingerprint
    from repro.tpch import lineitem
    fresh = lineitem(ctx.n, seed=1)
    ms, _ = ctx.timed("table_fingerprint", "repro.cache",
                      lambda: table_fingerprint(fresh), 1)
    return {"cache.fingerprint_ms": ms}


def cache_budgeted(ctx: Context) -> Dict[str, float]:
    """Two passes with ``budget_bytes`` = half the warm working set:
    the first evicts and spills, the second has to reload."""
    from repro.sql import QueryOptions
    texts = [ctx.sql[name] for name in _BUDGETED]
    with ctx.session() as session:
        for sql in texts:
            session.execute(sql)
        working_set = session.cache_stats().bytes_in_use
    spill_dir = OUT / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    with ctx.session(budget_bytes=max(working_set // 2, 1),
                     spill_dir=str(spill_dir)) as session:
        for sql in texts:
            session.execute(sql)
        before = len(ctx.rec.spans)
        for name, sql in zip(_BUDGETED, texts):
            with ctx.rec.span("Session.execute(budgeted)", stmt=name,
                              layer="repro.cache") as span:
                result = session.execute(sql,
                                         options=QueryOptions(trace=True))
            ctx.rec.adopt(result.trace_dict(), span)
        stats = session.cache_stats()
    reload_ms = sum(s["duration_ms"] for s in ctx.rec.spans[before:]
                    if s["name"] == "spill.read")
    return {"cache.evictions": float(stats.evictions),
            "cache.reloads": float(stats.reloads),
            "cache.reload_ms": reload_ms}


# ----------------------------------------------------------------------
# repro.parallel
# ----------------------------------------------------------------------
def parallel_executors(ctx: Context) -> Dict[str, float]:
    """The partitioned statement under each executor, a fresh session
    each (so the structures are built every time); the process executor
    twice, cold (pool start, shared-memory copies) and warm."""
    sql = ctx.sql["partitioned"]
    out: Dict[str, float] = {}
    for executor in ("serial", "thread", "process"):
        with ctx.session(executor=executor, workers=_WORKERS) as session:
            name = ("parallel.process_cold_ms" if executor == "process"
                    else f"parallel.{executor}_ms")
            out[name], _ = ctx.timed(f"Session.execute({executor})",
                                     "repro.parallel",
                                     lambda: session.execute(sql), 1)
            if executor == "process":
                out["parallel.process_warm_ms"], _ = ctx.timed(
                    "Session.execute(process, warm)", "repro.parallel",
                    lambda: session.execute(sql), 1)
    return out


# ----------------------------------------------------------------------
# repro.wire / repro.sql.result
# ----------------------------------------------------------------------
def wire(ctx: Context) -> Dict[str, float]:
    """Serialising a result the way the server does: ``win_large``
    (every row) and ``win_small`` (the same work, LIMIT 100)."""
    from repro.serve.wire import json_body
    out: Dict[str, float] = {}
    with ctx.session(ctx.serve_table) as session:
        results = {cls: session.execute(SERVE_CLASSES[cls])
                   for cls in ("win_large", "win_small")}
    for cls, result in results.items():
        to_dict_ms, payload = ctx.timed(
            f"QueryResult.to_dict({cls})", "repro.wire",
            lambda: result.to_dict(include_trace=False))
        body_ms, body = ctx.timed(f"serve.wire.json_body({cls})",
                                  "repro.wire", lambda: json_body(payload))
        if cls == "win_small":
            out["wire.small_result_ms"] = to_dict_ms + body_ms
        else:
            out.update({"wire.to_dict_ms": to_dict_ms,
                        "wire.json_dumps_ms": body_ms,
                        "wire.body_bytes": float(len(body))})
    return out


#: Every probe with the metrics it owes, so that a probe which cannot
#: run still reports each of them (as ``null``).
PROBES: List[Tuple[Callable[[Context], Dict[str, float]], Tuple[str, ...]]] = [
    (sql_frontend, ("sql.tokenize_ms", "sql.parse_ms", "sql.plan_ms")),
    (sql_prepare_bind, ("sql.prepare_bind_ms",)),
    (sql_exec_overhead, ("window.operator_ms", "sql.exec_overhead_ms")),
    (window_bounds, ("window.bounds_ms",)),
    (mst_and_preprocess, (
        "preprocess.prev_occurrence_ms", "preprocess.permutation_ms",
        "mst.build_ms", "mst.build_agg_ms", "mst.count_ms",
        "mst.aggregate_ms", "mst.select_ms", "mst.bytes", "mst.levels")),
    (rangetree, ("rangetree.build_ms", "rangetree.probe_ms")),
    (cache_fingerprint, ("cache.fingerprint_ms",)),
    (cache_budgeted, ("cache.evictions", "cache.reloads",
                      "cache.reload_ms")),
    (parallel_executors, (
        "parallel.serial_ms", "parallel.thread_ms",
        "parallel.process_cold_ms", "parallel.process_warm_ms")),
    (wire, ("wire.to_dict_ms", "wire.json_dumps_ms", "wire.body_bytes",
            "wire.small_result_ms")),
]


def run(rec: Recorder, seed: int, smoke: bool
        ) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """All probes; returns (metrics, reasons for the ``null`` ones)."""
    ctx = Context(rec, seed, smoke)
    metrics: Dict[str, Any] = {}
    unavailable: Dict[str, str] = {}
    for probe, names in PROBES:
        try:
            values = probe(ctx)
        except Exception as exc:  # boundary: a probe never stops the run
            values = {}
            for name in names:
                unavailable[name] = f"{type(exc).__name__}: {exc}"
        for name in names:
            value = values.get(name)
            metrics[name] = (None if value is None or math.isnan(value)
                             else float(value))
    return metrics, unavailable
