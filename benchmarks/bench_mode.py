"""Windowed MODE — the algorithm comparison the paper's related work
implies ([13, 25], Wesley & Xu's mode coverage).

Mode cannot be phrased as a 2-d range count, so the merge sort tree does
not apply; the contenders are the sqrt-decomposition range-mode index
(the engine's ``mst`` path), the incremental counter table, and naive
recomputation, each timed as one frame kernel over a partition sorted
and framed outside the timer (``repro.bench.contenders``). The
incremental algorithm shows the same Section 3.2 pathologies as for
distinct counts: great on monotonic frames, degrading with
non-monotonicity.
"""

import numpy as np
import pytest

from conftest import emit
from repro.bench.contenders import kernel, partition
from repro.bench.harness import BenchSeries, measure, scaled
from repro.tpch import lineitem
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
)
from repro.window.frame import OrderItem

MODE = WindowCall("mode", ("l_partkey",))


@pytest.fixture(scope="module")
def table():
    return lineitem(scaled(5_000))


def _sliding(frame):
    return WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(frame), current_row()))


@pytest.mark.parametrize("algorithm", ["mst", "incremental", "naive"])
def test_mode_sliding(benchmark, table, algorithm):
    benchmark.pedantic(kernel(MODE, algorithm),
                       args=(partition(table, _sliding(200)),),
                       rounds=2, iterations=1)


def test_mode_series(benchmark, table):
    """Frame-size sweep for every mode contender, with agreement check."""
    n = table.num_rows
    series = BenchSeries(
        f"Windowed MODE — algorithms vs frame size (n = {n})",
        ["algorithm", "frame", "seconds", "tuples_per_s"])
    for frame in (20, 200, 2_000):
        part = partition(table, _sliding(frame))
        reference = None
        for algorithm in ("mst", "incremental", "naive"):
            run = kernel(MODE, algorithm)
            out = []
            seconds = measure(lambda: out.append(run(part)))
            series.add(algorithm, frame, seconds, n / seconds)
            if reference is None:
                reference = out[-1]
            assert out[-1] == reference, \
                f"{algorithm} disagrees at frame {frame}"
    emit(series)

    # Non-monotonic frames: incremental loses its overlap advantage.
    rng = np.random.default_rng(12)
    start = rng.integers(0, 400, size=n)
    end = np.maximum(400 - start, 0)
    jumpy = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                       frame=FrameSpec.rows(preceding(start),
                                            following(end)))
    incremental = kernel(MODE, "incremental")
    times = {}
    for label, spec in [("monotonic", _sliding(400)),
                        ("non-monotonic", jumpy)]:
        part = partition(table, spec)
        times[label] = measure(lambda: incremental(part))
    nm = BenchSeries("Windowed MODE — incremental vs non-monotonicity",
                     ["frames", "seconds"])
    nm.add("monotonic (frame 400)", times["monotonic"])
    nm.add("non-monotonic (avg 400)", times["non-monotonic"])
    emit(nm)
    assert times["non-monotonic"] > times["monotonic"], \
        "losing frame overlap must cost the incremental algorithm"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
