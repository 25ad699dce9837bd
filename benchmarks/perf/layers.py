"""Per-layer metrics of a traced run.

Three kinds, all printed by every ``--trace 1`` run:

* *statement* metrics — the untraced per-statement medians that name
  one workload's statements (``distinct_ms``, ``join_heavy_ms``,
  ``point_p50_ms`` ...); 0 on a workload that does not run them;
* *pass* metrics — summed from the spans and ``QueryStats`` of one
  traced pass of this workload; 0 where the layer is idle in it;
* *probe* metrics — the fixed microbenchmarks of
  :mod:`benchmarks.perf.probes`, identical whichever workload is traced.

``PER_LAYER`` maps each name to (unit, better, the end-to-end metric and
workload it is expected to move — written down before measuring).
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Sequence, Tuple

from benchmarks.perf import OUT, ROOT, probes
from benchmarks.perf.harness import by_statement
from benchmarks.perf.spans import Recorder
from benchmarks.perf.statements import (
    SERVE_CLASSES,
    TPCH_JOIN_HEAVY,
    TPCH_SCAN_AGG,
)

_MS, _LOW = "ms", "lower"
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    # statement metrics (untraced medians) ------------------------------
    "distinct_ms": (_MS, _LOW, "window_probe / window_build pass_ms"),
    "median_ms": (_MS, _LOW, "window_probe / window_build pass_ms"),
    "nonmono_ms": (_MS, _LOW, "window_probe / window_build pass_ms"),
    "join_heavy_ms": (_MS, _LOW, "tpch_relational pass_ms, slowest_query_ms"),
    "scan_agg_ms": (_MS, _LOW, "tpch_relational pass_ms"),
    "point_p50_ms": (_MS, _LOW, "serve_mixed geomean_query_ms"),
    "agg_p50_ms": (_MS, _LOW, "serve_mixed geomean_query_ms"),
    "win_small_p50_ms": (_MS, _LOW, "serve_mixed pass_ms"),
    "win_large_p50_ms": (_MS, _LOW, "serve_mixed slowest_query_ms"),
    "win_p90_ms": (_MS, _LOW, "serve_mixed slowest_query_ms"),
    "fastest_query_ms": (_MS, _LOW, "every workload's geomean_query_ms"),
    "error_share": ("ratio", _LOW, "the run's failed / attempted"),
    # repro.sql ----------------------------------------------------------
    "sql.tokenize_ms": (_MS, _LOW, "serve_mixed geomean_query_ms only"),
    "sql.parse_ms": (_MS, _LOW, "serve_mixed geomean_query_ms only"),
    "sql.plan_ms": (_MS, _LOW, "serve_mixed geomean_query_ms only"),
    "sql.plancache_hit_ratio": ("ratio", "higher",
                                "serve_mixed geomean_query_ms"),
    "sql.prepare_bind_ms": (_MS, _LOW,
                            "serve_mixed geomean_query_ms"),
    "sql.exec_overhead_ms": (_MS, _LOW, "window_probe pass_ms"),
    "sql.session_open_close_ms": (_MS, _LOW, "window_build pass_ms"),
    "sql.join_build_ms": (_MS, _LOW, "tpch_relational slowest_query_ms"),
    "sql.join_probe_ms": (_MS, _LOW, "tpch_relational slowest_query_ms"),
    "sql.cte_ms": (_MS, _LOW, "tpch_relational slowest_query_ms"),
    "sql.filter_agg_ms": (_MS, _LOW, "tpch_relational geomean_query_ms"),
    "sql.unattributed_ms": (_MS, _LOW, "none: it is ROADMAP item 1's gap"),
    "sql.rows_probed_per_row_out": (
        "count", _LOW, "tpch_relational slowest_query_ms once predicates "
                       "are pushed down"),
    # repro.window -------------------------------------------------------
    "window.operator_ms": (_MS, _LOW, "window_probe pass_ms"),
    "window.bounds_ms": (_MS, _LOW, "window_probe nonmono statement"),
    "window.partition_sort_ms": (_MS, _LOW, "window_build pass_ms"),
    "window.group_ms": (_MS, _LOW, "window_probe pass_ms"),
    "window.probe_ms": (_MS, _LOW, "window_probe pass_ms; ~0 in tpch"),
    "window.structure_build_ms": (_MS, _LOW,
                                  "window_build pass_ms; 0 in window_probe"),
    # repro.mst / preprocess / rangetree ---------------------------------
    "mst.build_ms": (_MS, _LOW, "window_build pass_ms"),
    "mst.build_agg_ms": (_MS, _LOW, "window_build pass_ms"),
    "mst.count_ms": (_MS, _LOW, "window_probe geomean_query_ms"),
    "mst.aggregate_ms": (_MS, _LOW, "window_probe pass_ms"),
    "mst.select_ms": (_MS, _LOW, "window_probe geomean_query_ms"),
    "mst.bytes": ("B", _LOW, "window_* peak_rss_mb"),
    "mst.levels": ("count", _LOW, "window_* peak_rss_mb"),
    "preprocess.prev_occurrence_ms": (_MS, _LOW, "window_build pass_ms"),
    "preprocess.permutation_ms": (_MS, _LOW, "window_build pass_ms"),
    "rangetree.build_ms": (_MS, _LOW, "window_build slowest_query_ms"),
    "rangetree.probe_ms": (_MS, _LOW, "window_probe pass_ms"),
    # repro.cache --------------------------------------------------------
    "cache.hit_ratio": ("ratio", "higher",
                        "1 on window_probe, 0 on window_build (asserted)"),
    "cache.structure_builds": ("count", _LOW, "0 on window_probe"),
    "cache.structure_reuses": ("count", "higher", "0 on window_build"),
    "cache.fingerprint_ms": (_MS, _LOW, "window_probe pass_ms"),
    "cache.evictions": ("count", _LOW, "none today: default is unbudgeted"),
    "cache.reloads": ("count", _LOW, "none today: default is unbudgeted"),
    "cache.reload_ms": (_MS, _LOW, "none today: default is unbudgeted"),
    # repro.parallel (default config is serial: evidence, not a lever) ---
    "parallel.serial_ms": (_MS, _LOW, "none"),
    "parallel.thread_ms": (_MS, _LOW, "none"),
    "parallel.process_cold_ms": (_MS, _LOW, "none"),
    "parallel.process_warm_ms": (_MS, _LOW, "none"),
    # repro.resilience ---------------------------------------------------
    "gateway.wait_ms": (_MS, _LOW, "serve.loaded_rps"),
    "gateway.shed": ("count", _LOW, "serve.loaded_rps"),
    # repro.wire / repro.serve -------------------------------------------
    "wire.to_dict_ms": (_MS, _LOW, "serve_mixed slowest_query_ms only"),
    "wire.json_dumps_ms": (_MS, _LOW, "serve_mixed slowest_query_ms only"),
    "wire.body_bytes": ("B", _LOW, "serve_mixed slowest_query_ms only"),
    "wire.small_result_ms": (_MS, _LOW, "none: LIMIT 100 leaves the wire "
                                        "nothing to do"),
    "serve.noop_ms": (_MS, _LOW, "serve_mixed geomean_query_ms"),
    "serve.http_overhead_ms": (_MS, _LOW, "serve_mixed geomean_query_ms"),
    "serve.metrics_scrape_ms": (_MS, _LOW, "none"),
    "serve.startup_s": ("s", _LOW, "serve_mixed setup_s"),
    "serve.loaded_rps": ("1/s", "higher", "none: 2 shared cores measure "
                                          "the scheduler (A/A spread 20 %)"),
    "serve.loaded_point_p50_ms": (_MS, _LOW, "serve.loaded_rps"),
    "serve.loaded_agg_p50_ms": (_MS, _LOW, "serve.loaded_rps"),
    "serve.loaded_win_small_p50_ms": (_MS, _LOW, "serve.loaded_rps"),
    "serve.loaded_win_large_p50_ms": (_MS, _LOW, "serve.loaded_rps"),
    "serve.loaded_p90_ms": (_MS, _LOW, "serve.loaded_rps"),
    # repro.obs / data ---------------------------------------------------
    "obs.trace_overhead_ratio": ("ratio", _LOW, "none: tracing is off in "
                                                "every end-to-end run"),
    "data.gen_s": ("s", _LOW, "setup_s"),
}


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1000.0 if samples else 0.0


def _p90_ms(samples: Sequence[float]) -> float:
    """Nearest-rank 90th percentile, 0 for a class that did not run."""
    values = sorted(samples)
    return (values[min(int(0.9 * len(values)), len(values) - 1)] * 1000.0
            if values else 0.0)


def statement_metrics(passes: Sequence[Any], traced: Any
                      ) -> Dict[str, float]:
    """Untraced per-statement medians under the names later issues
    cite, and the loaded phase of serve_mixed's traced pass."""
    pooled = by_statement(passes)
    median = {name: _median_ms(s) for name, s in pooled.items()}
    windows = pooled.get("win_small", []) + pooled.get("win_large", [])
    out = {f"{name}_ms": median.get(name, 0.0)
           for name in ("distinct", "median", "nonmono")}
    out["join_heavy_ms"] = sum(median.get(q, 0.0) for q in TPCH_JOIN_HEAVY)
    out["scan_agg_ms"] = sum(median.get(q, 0.0) for q in TPCH_SCAN_AGG)
    for cls in ("point", "agg", "win_small", "win_large"):
        out[f"{cls}_p50_ms"] = median.get(cls, 0.0)
    out["win_p90_ms"] = _p90_ms(windows)
    out["fastest_query_ms"] = min(median.values())
    out["sql.session_open_close_ms"] = _median_ms(
        [p.session_s for p in passes])
    if traced.loaded_ops:
        loaded = by_statement([traced], loaded=True)
        for cls, samples in loaded.items():
            out[f"serve.loaded_{cls}_p50_ms"] = _median_ms(samples)
        out["serve.loaded_p90_ms"] = _p90_ms(
            [s for _c, s in traced.loaded_ops])
        out["serve.loaded_rps"] = len(traced.loaded_ops) / traced.loaded_wall
    return out


def pass_metrics(rec: Recorder, traced: Any, passes: Sequence[Any]
                 ) -> Dict[str, float]:
    """What the spans and ``QueryStats`` of the traced pass add up to."""
    own = rec.self_ms()
    stats = traced.stats
    hits = sum(s["cache_hits"] for s in stats)
    lookups = hits + sum(s["cache_misses"] for s in stats)
    parses = rec.named("parse")
    plan_hits = sum(1 for s in parses if s["attrs"].get("plan_cache") == "hit")
    statements = [s for s in rec.spans if s["parent"] is None]
    rows_out = sum(s["attrs"].get("rows", 0) for s in statements)
    probed = sum(s["attrs"].get("rows", 0) for s in rec.named("join.probe"))
    return {
        "obs.trace_overhead_ratio":
            traced.wall / statistics.median(p.wall for p in passes),
        "sql.plancache_hit_ratio": plan_hits / len(parses) if parses else 0.0,
        "sql.join_build_ms": rec.total_ms("join.build"),
        "sql.join_probe_ms": rec.total_ms("join.probe"),
        "sql.cte_ms": rec.total_ms("cte.materialize"),
        "sql.filter_agg_ms": sum((s["duration_ms"] for s in statements
                                  if s["stmt"] in TPCH_SCAN_AGG), 0.0),
        # a query span's self time: wall no child span accounts for
        "sql.unattributed_ms": rec.total_ms("query", own),
        "sql.rows_probed_per_row_out": probed / rows_out if rows_out else 0.0,
        "window.partition_sort_ms": rec.total_ms("partition"),
        "window.group_ms": rec.total_ms("window.group", own),
        "window.probe_ms": rec.total_ms("probe", own),
        "window.structure_build_ms": rec.total_ms("structure.build"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.structure_builds": float(
            sum(s["structure_builds"] for s in stats)),
        "cache.structure_reuses": float(
            sum(s["structure_reuses"] for s in stats)),
        "gateway.wait_ms": sum(s["queue_wait_seconds"] for s in stats) * 1e3,
    }


def serve_metrics(workload: Any, rec: Recorder, point_p50_ms: float
                  ) -> Dict[str, float]:
    """Round trips only a live server can answer."""
    from repro.sql import Catalog, Session

    def round_trips(path: str, count: int, name: str) -> float:
        samples = []
        for _ in range(count):
            with rec.span(name, stmt=name, layer="repro.serve"):
                samples.append(workload.get(path)[1])
        return _median_ms(samples)

    noop_ms = round_trips("/v1/healthz", 20, "GET /v1/healthz")
    scrape_ms = round_trips("/v1/metrics", 5, "GET /v1/metrics")
    health = json.loads(workload.get("/v1/healthz")[0])
    points = [params for cls, params in workload.sequence if cls == "point"]
    with Session(Catalog({"lineitem": workload.table})) as session:
        statement = session.prepare(SERVE_CLASSES["point"])
        statement.execute(points[0])
        samples = []
        for params in points:
            with rec.span("PreparedStatement.execute", stmt="point",
                          layer="repro.sql") as span:
                statement.execute(params)
            samples.append(span["duration_ms"])
    return {
        "serve.noop_ms": noop_ms,
        "serve.metrics_scrape_ms": scrape_ms,
        "serve.http_overhead_ms": point_p50_ms - statistics.median(samples),
        "serve.startup_s": workload.startup_s,
        "gateway.shed": float(health["gateway"]["shed"]),
    }


def measure(workload: Any, passes: Sequence[Any], smoke: bool
            ) -> Dict[str, Any]:
    """One traced pass of ``workload``, the probes, and every per-layer
    metric derived from them; spans are written out before returning."""
    rec = Recorder()
    traced = workload.run_pass(rec)
    metrics: Dict[str, Any] = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(statement_metrics(passes, traced))
    metrics.update(pass_metrics(rec, traced, passes))
    metrics["data.gen_s"] = workload.gen_s
    if workload.name == "serve_mixed":
        metrics.update(serve_metrics(workload, rec, metrics["point_p50_ms"]))
    else:
        metrics["gateway.shed"] = float(workload.gateway_shed())
    pass_spans = len(rec.spans)
    probed, unavailable = probes.run(rec, workload.seed, smoke)
    metrics.update(probed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans.{workload.name}.json"
    path.write_text(json.dumps(rec.spans))
    return {"metrics": metrics, "unavailable": unavailable,
            "spans_file": str(path.relative_to(ROOT)),
            "pass_spans": pass_spans,
            "spans": len(rec.spans)}
