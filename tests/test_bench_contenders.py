"""Every benchmark contender agrees with ``naive`` on the same partition.

The paper's competitors (incremental, order statistic tree, holistic
segment tree) are frame kernels in :mod:`repro.bench.contenders`, not
engine paths; this suite holds each ``(function, contender)`` of its
table to the engine's naive recomputation over one
:func:`~repro.bench.contenders.partition`, on the frame shapes the
figures time: monotonic ROWS frames, the RANGE frame of
``examples/monthly_active_users.py``, Figure 12's non-monotonic
per-row offsets and frames that are empty — over values from all-equal
to all-distinct.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.contenders import CONTENDERS, kernel, partition
from repro.table import DataType, Table
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
)
from repro.window.frame import OrderItem

SHAPES = ("rows", "range", "nonmonotonic", "empty")


def _call(function, column, fraction):
    order = (OrderItem(column),)
    return {
        "percentile_disc": WindowCall("percentile_disc", (column,),
                                      fraction=fraction),
        "rank": WindowCall("rank", order_by=order),
        "lead": WindowCall("lead", (column,), order_by=order),
        "count distinct": WindowCall("count", (column,), distinct=True),
        "mode": WindowCall("mode", (column,)),
    }[function]


def _frame(shape, data, n, prices):
    if shape == "rows":
        return FrameSpec.rows(preceding(data.draw(st.integers(0, 12))),
                              following(data.draw(st.integers(0, 3))))
    if shape == "range":
        # examples/monthly_active_users.py: a date-like key, `interval`
        # PRECEDING .. CURRENT ROW.
        return FrameSpec.range(preceding(data.draw(st.integers(0, 6))),
                               current_row())
    rows = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    if shape == "nonmonotonic":
        # Figure 12: m * jitter PRECEDING .. width - m * jitter FOLLOWING.
        m = data.draw(st.floats(0, 1))
        width = data.draw(st.integers(0, 12))
        jitter = np.floor(m * ((prices * 7703) % 13)).astype(np.int64)
        return FrameSpec.rows(preceding(jitter),
                              following(np.maximum(width - jitter, 0)))
    # a PRECEDING .. b PRECEDING per row: empty wherever b >= a.
    return FrameSpec.rows(preceding(np.array(data.draw(rows))),
                          preceding(np.array(data.draw(rows))))


@pytest.mark.parametrize("function,contender", sorted(CONTENDERS))
@settings(deadline=None)
@given(data=st.data())
def test_contender_matches_naive(function, contender, data):
    n = data.draw(st.integers(1, 30))
    # 1 distinct value is all duplicates; 1 000 is nearly all distinct.
    values = st.integers(0, data.draw(st.sampled_from([1, 3, 1_000])) - 1)
    ints = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    prices = ints * 7 % 101
    table = Table.from_dict({
        "o": (DataType.INT64,
              sorted(data.draw(st.lists(st.integers(0, n // 2),
                                        min_size=n, max_size=n)))),
        "v": (DataType.INT64, ints.tolist()),
        "f": (DataType.FLOAT64, (prices / 4).tolist()),
    })
    shape = data.draw(st.sampled_from(SHAPES))
    spec = WindowSpec(order_by=(OrderItem("o"),),
                      frame=_frame(shape, data, n, prices))
    call = _call(function, data.draw(st.sampled_from(["v", "f"])),
                 data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])))
    part = partition(table, spec)
    assert kernel(call, contender)(part) == kernel(call, "naive")(part), \
        (shape, call)


def test_partition_is_sorted_and_framed_once():
    table = Table.from_dict({"o": (DataType.INT64, [3, 1, 2]),
                             "v": (DataType.INT64, [30, 10, 20])})
    part = partition(table, WindowSpec(
        order_by=(OrderItem("o"),),
        frame=FrameSpec.rows(preceding(1), current_row())))
    assert part.column("v")[0].tolist() == [10, 20, 30]
    assert part.start.tolist() == [0, 0, 1]
    assert part.end.tolist() == [1, 2, 3]
    with pytest.raises(ValueError, match="PARTITION BY"):
        partition(table, WindowSpec(partition_by=("v",),
                                    order_by=(OrderItem("o"),)))


def test_competitors_refuse_what_they_do_not_implement():
    table = Table.from_dict({"o": (DataType.INT64, [1, 2, 3]),
                             "v": (DataType.INT64, [1, None, 1])})
    spec = WindowSpec(order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(1), current_row()))
    part = partition(table, spec)
    with pytest.raises(ValueError, match="NULL"):
        kernel(WindowCall("mode", ("v",)), "incremental")(part)
    with pytest.raises(ValueError, match="FILTER"):
        kernel(WindowCall("mode", ("o",), filter_where="o"),
               "incremental")(part)
    with pytest.raises(ValueError, match="known"):
        kernel(WindowCall("lead", ("v",)), "ostree")
