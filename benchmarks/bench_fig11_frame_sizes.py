"""Figure 11 — framed median throughput vs frame size.

Paper result (SF1 lineitem, 6M rows): merge sort tree throughput is flat
(~9.3M tuples/s) regardless of frame size; naive falls below the MST at
frame ~130, incremental at ~700, the order statistic tree at ~20 000
(the task size); only the MST handles SQL's default running frame (6M
rows) in reasonable time.

Each contender is timed as one frame kernel over a partition sorted and
framed outside the timer (``repro.bench.contenders``).
"""

import math

import pytest

from conftest import emit
from repro.bench.contenders import kernel, partition
from repro.bench.figures import fig11_crossovers, fig11_frame_sizes
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

MEDIAN = WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5)


@pytest.fixture(scope="module")
def table():
    return lineitem(scaled(20_000))


def _part(table, frame):
    return partition(table, WindowSpec(
        order_by=(OrderItem("l_shipdate"),),
        frame=FrameSpec.rows(preceding(frame), current_row())))


@pytest.mark.parametrize("frame", [10, 1_000, 100_000_000])
def test_mst_median_by_frame(benchmark, table, frame):
    benchmark(kernel(MEDIAN, "mst"), _part(table, frame))


@pytest.mark.parametrize("frame", [10, 1_000])
def test_incremental_median_by_frame(benchmark, table, frame):
    benchmark(kernel(MEDIAN, "incremental"), _part(table, frame))


def test_figure11_series(benchmark):
    series = benchmark.pedantic(fig11_frame_sizes, rounds=1, iterations=1)
    emit(series)
    crossovers = fig11_crossovers()
    emit(crossovers)

    # The modelled crossovers must land near the paper's within 2x.
    for algorithm, found, paper in crossovers.rows:
        assert paper / 2 <= found <= paper * 2, (algorithm, found, paper)

    # Measured MST stays within a modest band across frame sizes while
    # naive degrades by orders of magnitude.
    mst = [r for r in series.rows if r[0] == "mst"
           and not math.isnan(r[2])]
    times = [r[2] for r in mst]
    assert max(times) < min(times) * 6, "MST should be ~flat in frame size"
    # Naive must grow with the frame size while the MST stays flat:
    # compare their growth factors over the frames both measured.
    naive = {r[1]: r[2] for r in series.rows if r[0] == "naive"
             and not math.isnan(r[2])}
    mst_by_frame = {r[1]: r[2] for r in mst}
    if len(naive) >= 2:
        lo_f, hi_f = min(naive), max(naive)
        naive_growth = naive[hi_f] / naive[lo_f]
        mst_growth = mst_by_frame[hi_f] / mst_by_frame[lo_f]
        assert naive_growth > mst_growth * 1.5, (naive_growth, mst_growth)
