"""Hypothesis property suite: MST equals the oracle on random inputs.

Random tables (with NULLs and heavy duplicates), random frame
specifications (mode, bounds, exclusion) and random functions — the
merge-sort-tree evaluation must match the brute-force oracle exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_columns_equal
from repro.table import DataType, Table
from repro.window import (
    FrameExclusion,
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
    unbounded_following,
    unbounded_preceding,
    window_query,
)
from repro.window.frame import FrameMode, OrderItem


@st.composite
def tables(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    xs = [int(v) if rng.random() > 0.15 else None
          for v in rng.integers(0, 6, n)]
    return Table.from_dict({
        "g": (DataType.INT64, [int(v) for v in rng.integers(0, 2, n)]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 12, n)]),
        "x": (DataType.INT64, xs),
        "y": (DataType.FLOAT64,
              [float(v) for v in rng.integers(0, 8, n)]),
    })


@st.composite
def frame_specs(draw):
    mode = draw(st.sampled_from([FrameMode.ROWS, FrameMode.RANGE,
                                 FrameMode.GROUPS]))
    bound_kinds = st.sampled_from(["unbounded", "offset", "current"])

    def bound(kind, is_start):
        if kind == "unbounded":
            return unbounded_preceding() if is_start \
                else unbounded_following()
        if kind == "current":
            return current_row()
        offset = draw(st.integers(0, 10))
        if is_start:
            return draw(st.sampled_from([preceding(offset),
                                         following(offset)]))
        return draw(st.sampled_from([preceding(offset),
                                     following(offset)]))

    start = bound(draw(bound_kinds), True)
    end = bound(draw(bound_kinds), False)
    exclusion = draw(st.sampled_from(list(FrameExclusion)))
    try:
        return FrameSpec(mode, start, end, exclusion)
    except Exception:
        return FrameSpec(mode, unbounded_preceding(), current_row(),
                         exclusion)


CALL_FACTORIES = [
    lambda: dict(function="count", args=("x",), distinct=True),
    lambda: dict(function="sum", args=("x",), distinct=True),
    lambda: dict(function="avg", args=("x",), distinct=True),
    lambda: dict(function="rank", order_by=(OrderItem("y"),)),
    lambda: dict(function="dense_rank", order_by=(OrderItem("y"),)),
    lambda: dict(function="row_number", order_by=(OrderItem("y"),)),
    lambda: dict(function="cume_dist", order_by=(OrderItem("y"),)),
    lambda: dict(function="percentile_disc", args=("y",), fraction=0.5),
    lambda: dict(function="percentile_cont", args=("y",), fraction=0.75),
    lambda: dict(function="first_value", args=("x",),
                 order_by=(OrderItem("y"),)),
    lambda: dict(function="last_value", args=("y",)),
    lambda: dict(function="nth_value", args=("y",), nth=2),
    lambda: dict(function="lead", args=("y",),
                 order_by=(OrderItem("y"),)),
    lambda: dict(function="lag", args=("x",), default=-1),
    # LEAD/LAG in the window order (identity permutation, no tree), with
    # and without skipped rows, and in another order with every row kept.
    lambda: dict(function="lead", args=("x",), offset=2, ignore_nulls=True),
    lambda: dict(function="lag", args=("x",), order_by=(OrderItem("o"),),
                 ignore_nulls=True),
    lambda: dict(function="lead", args=("y",),
                 order_by=(OrderItem("o", descending=True),)),
]


@given(table=tables(), frame=frame_specs(),
       call_index=st.integers(0, len(CALL_FACTORIES) - 1),
       partitioned=st.booleans())
@settings(max_examples=250, deadline=None)
def test_mst_equals_oracle(table, frame, call_index, partitioned):
    spec = WindowSpec(
        partition_by=("g",) if partitioned else (),
        order_by=(OrderItem("o"),),
        frame=frame)
    kwargs = CALL_FACTORIES[call_index]()
    got = window_query(table, [WindowCall(**{**kwargs,
                                             "algorithm": "mst"})],
                       spec).columns[-1].to_list()
    want = window_query(table, [WindowCall(**{**kwargs,
                                              "algorithm": "naive"})],
                        spec).columns[-1].to_list()
    assert_columns_equal(got, want)


@given(table=tables(), seed=st.integers(0, 9999),
       call_index=st.integers(0, len(CALL_FACTORIES) - 1))
@settings(max_examples=120, deadline=None)
def test_mst_equals_oracle_random_offsets(table, seed, call_index):
    """Per-row (non-monotonic) ROWS offsets."""
    rng = np.random.default_rng(seed)
    n = table.num_rows
    spec = WindowSpec(
        order_by=(OrderItem("o"),),
        frame=FrameSpec.rows(preceding(rng.integers(0, 8, size=n)),
                             following(rng.integers(0, 8, size=n))))
    kwargs = CALL_FACTORIES[call_index]()
    got = window_query(table, [WindowCall(**{**kwargs,
                                             "algorithm": "mst"})],
                       spec).columns[-1].to_list()
    want = window_query(table, [WindowCall(**{**kwargs,
                                              "algorithm": "naive"})],
                        spec).columns[-1].to_list()
    assert_columns_equal(got, want)


@st.composite
def one_large_many_single(draw):
    """One large partition beside many one-row partitions, interleaved
    in input order."""
    large = draw(st.integers(5, 30))
    singles = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    g = rng.permutation([0] * large + list(range(1, singles + 1)))
    n = len(g)
    xs = [int(v) if rng.random() > 0.15 else None
          for v in rng.integers(0, 6, n)]
    return Table.from_dict({
        "g": (DataType.INT64, [int(v) for v in g]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 12, n)]),
        "x": (DataType.INT64, xs),
        "y": (DataType.FLOAT64,
              [float(v) for v in rng.integers(0, 8, n)]),
    })


@given(table=one_large_many_single(), frame=frame_specs(),
       call_index=st.integers(0, len(CALL_FACTORIES) - 1))
@settings(deadline=None)  # the example count comes from the profile
def test_one_large_and_many_single_row_partitions(table, frame, call_index):
    """The group's one evaluation equals evaluating every partition on
    its own (and the naive rung)."""
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=frame)
    call = WindowCall(**CALL_FACTORIES[call_index]())
    got = window_query(table, [call], spec).columns[-1].to_list()
    naive = window_query(table, [WindowCall(**{
        **CALL_FACTORIES[call_index](), "algorithm": "naive"})],
        spec).columns[-1].to_list()
    assert_columns_equal(got, naive)
    alone = WindowSpec(order_by=(OrderItem("o"),), frame=frame)
    g = np.asarray(table.column("g").to_list())
    want = [None] * len(g)
    for key in np.unique(g):
        rows = np.flatnonzero(g == key)
        values = window_query(table.take(rows), [call],
                              alone).columns[-1].to_list()
        for row, value in zip(rows, values):
            want[row] = value
    assert_columns_equal(got, want)
