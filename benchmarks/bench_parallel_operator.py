"""Parallel window execution: serial vs the process-pool probe fan.

Two workload shapes bracket what a window group looks like:

* **many-small** — hundreds of similar partitions. The group is still
  one evaluation: each structure builds once over every partition and
  the per-row probe arrays fan out over the pool, exactly as for one
  partition.
* **one-large** — a single partition; the structure builds once and
  the per-row probe arrays fan out over the pool (Section 5.2).

Each shape runs at ``workers`` 1 (serial), 2 and 4 (the supervised
**process** pool: probe batches run in child processes against tree
levels in shared memory, so only the probes parallelise; the sort and
the build stay on the query thread).

Numbers are reported honestly: the process speedup pays fork +
shared-memory setup per group, and on a single-core machine there is
none to be had — ``meta.cpu_count`` is saved next to the ratios so a
1.0x on a 1-core container reads as what it is. The workers=1
configuration must stay within noise of the plain serial path (the
scheduler's only addition there is one strategy decision per window
group).

A final ``process-cold`` / ``process-warm`` pair measures the
session-lifetime table arena: a cold session pays fork + argsort +
shared-memory copies on every run, a warm session attaches the arena's
sort permutation zero-copy — the warm-over-cold ratio is the
amortization the arena buys and is asserted >= 1.5x where 4 cores
exist.
"""

import os

import pytest

from conftest import emit
from repro.bench.harness import BenchSeries, measure, save_series_json, scaled
from repro.parallel.scheduler import WindowScheduler
from repro.table import DataType, Table
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    preceding,
    window_query,
)
from repro.window.frame import OrderItem

#: The scheduler's decision overhead at workers=1 (one cost-model call
#: per window group) must be unmeasurable.
MAX_SERIAL_OVERHEAD = 1.05

#: Acceptance floor for the many-small shape at 4 workers. Only
#: enforceable where 4 cores exist; asserted softly below.
TARGET_PROCESS_SPEEDUP = 2.0

#: Acceptance floor for the table arena's amortization claim: a warm
#: repeat of a setup-dominated query (no fork, no argsort — the sort
#: permutation is attached from the arena) must beat a cold
#: session by this factor. Only enforceable with >= 4 real cores.
TARGET_WARM_OVER_COLD = 1.5


def _table(n: int, partitions: int, seed: int) -> Table:
    import numpy as np

    rng = np.random.default_rng(seed)
    return Table.from_dict({
        "g": (DataType.INT64,
              [int(v) for v in rng.integers(0, partitions, n)]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 10_000, n)]),
        "x": (DataType.INT64, [int(v) for v in rng.integers(0, 256, n)]),
        "y": (DataType.FLOAT64, [float(v) for v in rng.normal(size=n)]),
    }, name="t")


CALLS = [
    WindowCall("count", ("x",), distinct=True),
    WindowCall("percentile_disc", ("y",), fraction=0.5),
]

SPEC = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                  frame=FrameSpec.rows(preceding(199), current_row()))

#: The cold/warm comparison wants a query cheap enough that per-query
#: setup (fork, stable argsort, shared-memory copies) dominates a cold
#: session — that setup is exactly what the table
#: arena amortizes away on warm repeats.
CHEAP_CALLS = [WindowCall("sum", ("x",))]

CHEAP_SPEC = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                        frame=FrameSpec.rows(preceding(9), current_row()))


@pytest.fixture(scope="module")
def shapes():
    n = scaled(48_000)
    return {
        "many-small": _table(n, max(n // 120, 2), seed=1),
        "one-large": _table(n, 1, seed=2),
    }


def test_parallel_operator_speedup(shapes):
    series = BenchSeries(
        "Parallel window operator — serial vs process workers",
        ["shape", "executor", "workers", "strategy", "seconds",
         "speedup"])
    series.meta["cpu_count"] = os.cpu_count()
    series.meta["rows"] = {name: t.num_rows for name, t in shapes.items()}

    ratios = {}
    for name, table in shapes.items():
        baseline_result = window_query(table, CALLS, SPEC)
        baseline = measure(
            lambda: window_query(table, CALLS, SPEC),
            repeats=3, warmup=True)
        series.add(name, "serial", 0, "no scheduler", baseline, 1.0)
        for workers in (1, 2, 4):
            with WindowScheduler(workers=workers) as scheduler:
                result = window_query(table, CALLS, SPEC,
                                      parallel=scheduler)
                seconds = measure(
                    lambda: window_query(table, CALLS, SPEC,
                                         parallel=scheduler),
                    repeats=3, warmup=False)
                stats = scheduler.stats()
                strategy = stats.decisions[-1].strategy
                # Honest numbers only: a degraded process group
                # would be a serial measurement in disguise.
                assert stats.degraded_groups == 0, stats.render()
            # Parallelism must be invisible in results, shape by shape.
            for i in range(-len(CALLS), 0):
                assert (result.columns[i].to_list()
                        == baseline_result.columns[i].to_list())
            ratios[(name, workers)] = baseline / seconds
            series.add(name, scheduler.executor, workers, strategy,
                       seconds, baseline / seconds)

    # ------------------------------------------------------------------
    # cold vs warm process sessions: the table arena's amortization
    # claim. Cold = a fresh scheduler per run, so every run pays fork,
    # the stable argsort, the shared-memory copies and the pool
    # teardown. Warm = repeat queries against a live scheduler whose
    # arena already holds the sort permutation.
    # ------------------------------------------------------------------
    cw_workers = 4 if (os.cpu_count() or 1) >= 4 else 2
    table = shapes["many-small"]
    cheap_baseline_result = window_query(table, CHEAP_CALLS, CHEAP_SPEC)
    cheap_baseline = measure(
        lambda: window_query(table, CHEAP_CALLS, CHEAP_SPEC),
        repeats=3, warmup=True)

    def cold_session():
        with WindowScheduler(workers=cw_workers,
                             min_parallel_ops=0.0) as scheduler:
            window_query(table, CHEAP_CALLS, CHEAP_SPEC,
                         parallel=scheduler)

    cold = measure(cold_session, repeats=3, warmup=False)

    with WindowScheduler(workers=cw_workers,
                         min_parallel_ops=0.0) as scheduler:
        warm_result = window_query(table, CHEAP_CALLS, CHEAP_SPEC,
                                   parallel=scheduler)
        warm = measure(
            lambda: window_query(table, CHEAP_CALLS, CHEAP_SPEC,
                                 parallel=scheduler),
            repeats=3, warmup=False)
        stats = scheduler.stats()
        strategy = stats.decisions[-1].strategy
        assert stats.degraded_groups == 0, stats.render()
        arena = scheduler.arena_stats()
        # The warm path must actually be warm: repeat queries attach
        # the arena's sort permutation instead of re-sorting.
        assert arena is not None and arena.hits > 0, arena
    assert (warm_result.columns[-1].to_list()
            == cheap_baseline_result.columns[-1].to_list())

    warm_over_cold = cold / warm
    series.add("many-small", "process-cold", cw_workers, strategy,
               cold, cheap_baseline / cold)
    series.add("many-small", "process-warm", cw_workers, strategy,
               warm, cheap_baseline / warm)
    series.meta["cold_warm"] = {
        "workers": cw_workers,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "warm_over_cold": warm_over_cold,
    }

    series.note("speedup is baseline/seconds; process workers dodge "
                "the GIL but pay fork + shared-memory setup per group, "
                "and cpu_count bounds what they achieve")
    series.note("process-cold/process-warm rows run a cheap sum query "
                "so per-session setup dominates: cold pays fork + "
                "argsort + shared-memory copies + teardown every run, "
                "warm attaches the session arena's segments zero-copy")
    emit(series)
    path = save_series_json(series, filename="BENCH_parallel.json")
    print(f"  saved: {path}")

    # workers=1 is the serial code path plus one strategy decision
    # (the process pool is not even started for a serial decision).
    for name in shapes:
        overhead = 1.0 / ratios[(name, 1)]
        assert overhead <= MAX_SERIAL_OVERHEAD, (
            f"{name}: workers=1 costs {overhead:.3f}x serial "
            f"(limit {MAX_SERIAL_OVERHEAD}x)")

    # The acceptance speedups need real cores; on smaller machines the
    # honest numbers are still in BENCH_parallel.json.
    process_4 = ratios[("many-small", 4)]
    if (os.cpu_count() or 1) >= 4:
        assert process_4 >= TARGET_PROCESS_SPEEDUP, (
            f"many-small at 4 process workers: {process_4:.2f}x "
            f"(target {TARGET_PROCESS_SPEEDUP}x)")
        assert warm_over_cold >= TARGET_WARM_OVER_COLD, (
            f"warm arena session only {warm_over_cold:.2f}x faster "
            f"than cold (target {TARGET_WARM_OVER_COLD}x)")
    else:
        print(f"  cpu_count={os.cpu_count()}: speedup targets "
              f"{TARGET_PROCESS_SPEEDUP}x (process) / "
              f"{TARGET_WARM_OVER_COLD}x (warm-over-cold) not "
              f"enforced, measured {process_4:.2f}x / "
              f"{warm_over_cold:.2f}x")
