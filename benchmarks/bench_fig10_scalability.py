"""Figure 10 — throughput of holistic functions vs input size.

Frame = 5% of the input. Median / rank / lead / distinct count across
merge sort tree, incremental, order statistic tree and naive contenders,
each timed as one frame kernel over a partition sorted and framed
outside the timer (``repro.bench.contenders``). Measured single-thread
wall times on scaled-down inputs, plus the calibrated 20-core simulation
at the paper's full sizes.

Paper result: MST ramps until ~0.8M rows (enough 20k-tuple tasks for 40
threads) and peaks at 9.5M tuples/s; the order statistic tree degrades
once the frame nears the task size (~0.35M rows); naive and incremental
median never exceed 0.6M tuples/s; incremental distinct count is the
only close competitor until cache effects hit at 1.2M rows.
"""

import math

import pytest

from conftest import emit
from repro.bench.contenders import kernel, partition
from repro.bench.figures import fig10_scalability, fig10_simulated_sweep
from repro.bench.harness import scaled
from repro.tpch import lineitem
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    preceding,
)
from repro.window.frame import OrderItem


@pytest.fixture(scope="module")
def part():
    table = lineitem(scaled(10_000))
    frame = max(table.num_rows // 20, 1)
    return partition(table, WindowSpec(
        order_by=(OrderItem("l_shipdate"),),
        frame=FrameSpec.rows(preceding(frame), current_row())))


@pytest.mark.parametrize("algorithm", ["mst", "incremental", "ostree"])
def test_median_5pct_frame(benchmark, part, algorithm):
    call = WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5)
    benchmark(kernel(call, algorithm), part)


@pytest.mark.parametrize("algorithm", ["mst", "incremental"])
def test_distinct_count_5pct_frame(benchmark, part, algorithm):
    call = WindowCall("count", ("l_partkey",), distinct=True)
    benchmark(kernel(call, algorithm), part)


def test_rank_mst(benchmark, part):
    call = WindowCall("rank", order_by=(OrderItem("l_extendedprice"),))
    benchmark(kernel(call, "mst"), part)


def test_lead_mst(benchmark, part):
    call = WindowCall("lead", ("l_extendedprice",),
                      order_by=(OrderItem("l_extendedprice"),))
    benchmark(kernel(call, "mst"), part)


def test_figure10_series(benchmark):
    """Regenerate Figure 10: measured + simulated throughput curves."""
    series = benchmark.pedantic(fig10_scalability, rounds=1, iterations=1)
    emit(series)
    simulated = fig10_simulated_sweep()
    emit(simulated)

    # Shape assertions on the simulated full-size curves.
    by_algo = {}
    for algorithm, n, tps in simulated.rows:
        by_algo.setdefault(algorithm, {})[n] = tps
    mst = by_algo["mst"]
    # MST ramps up with input size until the machine saturates.
    assert mst[800_000] > mst[50_000] * 2
    # MST beats the serial-state competitors at full size for medians.
    assert mst[2_000_000] > by_algo["incremental_median"][2_000_000] * 10
    assert mst[2_000_000] > by_algo["naive_median"][2_000_000] * 100
    assert mst[2_000_000] > by_algo["ostree_median"][2_000_000]
    # The order statistic tree degrades as frames (5% of n) approach the
    # 20k task size, i.e. beyond ~0.35M rows it falls off its own peak.
    ostree = by_algo["ostree_median"]
    assert ostree[800_000] > ostree[2_000_000]

    # Measured sanity: every MST configuration actually ran (the
    # MST is never skipped by the runtime-projection guard, unlike the
    # quadratic competitors at large sizes). Measured *asymptotics* are
    # asserted by the Table 1 slope fits, where the running frame makes
    # the quadratic term unmissable; at a 5% frame and CPython-feasible
    # sizes, fixed per-row overheads dominate all algorithms.
    mst_rows = [r for r in series.rows if r[1] == "mst"]
    assert mst_rows
    assert all(not math.isnan(r[3]) for r in mst_rows)
