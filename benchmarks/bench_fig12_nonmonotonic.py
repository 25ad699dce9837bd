"""Figure 12 — framed median under non-monotonic window frames.

Frame bounds follow the paper's pseudorandom construction
``m * mod(price * 7703, 499) preceding .. 500 - m * ... following``:
m = 0 is a monotonic 500-row frame; larger m shrinks the overlap between
consecutive frames.

Paper result: the incremental algorithm is competitive at m = 0, loses
to the merge sort tree at any m > 0, and falls below even the naive
algorithm as m grows (bookkeeping overhead); the MST is unaffected.

Each contender is timed as one frame kernel over a partition sorted and
framed outside the timer (``repro.bench.contenders``).
"""

import numpy as np
import pytest

from conftest import emit
from repro.bench.contenders import kernel, partition
from repro.bench.figures import fig12_nonmonotonic
from repro.bench.harness import scaled
from repro.tpch import lineitem
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    following,
    preceding,
)
from repro.window.frame import OrderItem


@pytest.fixture(scope="module")
def table():
    return lineitem(scaled(5_000))


def _nonmonotonic_part(table, m):
    price_cents = np.round(
        np.asarray(table.column("l_extendedprice").raw()) * 100
    ).astype(np.int64)
    jitter = (price_cents * 7703) % 499
    start = np.floor(m * jitter).astype(np.int64)
    end = np.maximum(500 - np.floor(m * jitter), 0).astype(np.int64)
    return partition(table, WindowSpec(
        order_by=(OrderItem("l_shipdate"),),
        frame=FrameSpec.rows(preceding(start), following(end))))


@pytest.mark.parametrize("m", [0.0, 1.0])
@pytest.mark.parametrize("algorithm", ["mst", "incremental"])
def test_median_nonmonotonic(benchmark, table, m, algorithm):
    call = WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5)
    benchmark(kernel(call, algorithm), _nonmonotonic_part(table, m))


def test_figure12_series(benchmark):
    series = benchmark.pedantic(fig12_nonmonotonic, rounds=1, iterations=1)
    emit(series)
    rows = {(r[0], r[1]): r for r in series.rows}
    ms = sorted({r[1] for r in series.rows})
    top = max(ms)

    # Measured: incremental slows down with m, MST does not.
    inc_first = rows[("incremental", 0.0)][2]
    inc_last = rows[("incremental", top)][2]
    assert inc_last > inc_first * 3, "incremental must degrade with m"
    mst_times = [rows[("mst", m)][2] for m in ms]
    assert max(mst_times) < min(mst_times) * 3, "MST unaffected by m"

    # Simulated at full scale: incremental falls below naive at high m.
    assert rows[("incremental", top)][5] < rows[("naive", top)][5]
    assert rows[("mst", top)][5] > rows[("incremental", top)][5] * 10
