"""Table 1 — complexity classes of the holistic-aggregate algorithms.

Empirically fits log-log slopes of runtime vs input size under SQL's
default frame (UNBOUNDED PRECEDING .. CURRENT ROW, frame grows with n)
and checks the ordering the paper's Table 1 implies: the merge sort tree
scales log-linearly where naive recomputation is quadratic; the
incremental distinct count is linear but serial.

Interpreter-level constants blur the slopes at CPython-feasible sizes
(e.g. the incremental percentile's O(n^2) term is a C memmove that only
dominates at much larger n), so the assertions target the ordering, not
exact exponents; the full fitted table is printed for EXPERIMENTS.md.
Each contender is timed as one frame kernel over a partition sorted and
framed outside the timer (``repro.bench.contenders``).
"""

import pytest

from conftest import emit
from repro.bench.contenders import kernel, partition
from repro.bench.figures import table1_complexity
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
def running_part():
    return partition(lineitem(scaled(4_000)), WindowSpec(
        order_by=(OrderItem("l_shipdate"),),
        frame=FrameSpec.rows(preceding(10 ** 9), current_row())))


@pytest.mark.parametrize("algorithm", ["mst", "incremental"])
def test_running_distinct_count(benchmark, running_part, algorithm):
    call = WindowCall("count", ("l_partkey",), distinct=True)
    benchmark(kernel(call, algorithm), running_part)


@pytest.mark.parametrize("algorithm", ["mst", "ostree", "segtree"])
def test_running_median(benchmark, running_part, algorithm):
    call = WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5)
    benchmark(kernel(call, algorithm), running_part)


def test_table1_slopes(benchmark):
    series = benchmark.pedantic(table1_complexity, rounds=1, iterations=1)
    emit(series)
    slopes = {(r[0], r[1]): r[4] for r in series.rows}

    # Quadratic algorithms must fit clearly superlinear slopes.
    assert slopes[("dist. count", "naive")] > 1.5
    assert slopes[("percentile", "naive")] > 1.5
    assert slopes[("rank", "naive")] > 1.5
    # Log-linear algorithms stay well below quadratic.
    for key in [("dist. count", "MST"), ("percentile", "MST"),
                ("rank", "MST"), ("percentile", "order statistic tree")]:
        assert slopes[key] < 1.6, (key, slopes[key])
    # Naive must be clearly worse than the MST for every aggregate.
    for aggregate in ["dist. count", "percentile", "rank"]:
        assert slopes[(aggregate, "naive")] > slopes[(aggregate, "MST")]
