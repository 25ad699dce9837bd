"""Targeted tests for evaluator plumbing and the trickiest corrections."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_columns_equal
from repro.mst.vectorized import batched_count
from repro.table import DataType, Table
from repro.window import (
    FrameExclusion,
    FrameSpec,
    WindowCall,
    WindowSpec,
    following,
    preceding,
    window_query,
)
from repro.window.bounds import (PeerGroups, exclusion_ranges, frame_sizes,
                                 row_ranges)
from repro.window.calls import WindowCall as WC
from repro.window.evaluators import distinct
from repro.window.evaluators.common import CallInput, keep_mask
from repro.window.frame import OrderItem
from repro.window.partition import PartitionView


def _partition(columns, n, frame=None, exclusion=FrameExclusion.NO_OTHERS):
    start = np.zeros(n, dtype=np.int64)
    end = np.full(n, n, dtype=np.int64)
    peers = PeerGroups(np.arange(n))
    pieces = exclusion_ranges(start, end, exclusion, peers)
    pieces = [(np.asarray(lo), np.asarray(hi)) for lo, hi in pieces]
    return PartitionView(columns, n, start, end, pieces, peers, exclusion)


class TestKeepMask:
    def _columns(self):
        return {
            "x": (np.array([1, 2, 3, 4]),
                  np.array([True, False, True, True])),
            "f": (np.array([True, True, False, True]),
                  np.array([True, True, True, False])),
        }

    def test_filter_and_null_skipping(self):
        part = _partition(self._columns(), 4)
        call = WC("count", ("x",), filter_where="f")
        mask = keep_mask(call, part, skip_null_arg=True)
        # row1: null x; row2: filter false; row3: filter NULL
        assert mask.tolist() == [True, False, False, False]

    def test_no_filter(self):
        part = _partition(self._columns(), 4)
        call = WC("count", ("x",))
        assert keep_mask(call, part, skip_null_arg=False).tolist() == \
            [True] * 4


class TestCallInput:
    def test_filtered_bounds(self):
        columns = {"x": (np.array([1, 2, 3, 4, 5]),
                         np.array([True, False, True, False, True]))}
        part = _partition(columns, 5)
        call = WC("count", ("x",))
        inputs = CallInput(call, part, skip_null_arg=True)
        assert inputs.n_kept == 3
        assert inputs.start_f.tolist() == [0] * 5
        assert inputs.end_f.tolist() == [3] * 5
        assert frame_sizes(inputs.pieces_f).tolist() == [3] * 5
        assert list(inputs.kept_values("x")) == [1, 3, 5]

    def test_row_pieces_skip_empty(self):
        columns = {"x": (np.arange(3), np.ones(3, dtype=np.bool_))}
        part = _partition(columns, 3,
                          exclusion=FrameExclusion.CURRENT_ROW)
        call = WC("count", ("x",))
        inputs = CallInput(call, part, skip_null_arg=False)
        # row 0: frame [0,3) minus row 0 = [1,3) — one piece
        assert row_ranges(inputs.pieces_f, 0) == [(1, 3)]
        # row 1: [0,1) and [2,3)
        assert row_ranges(inputs.pieces_f, 1) == [(0, 1), (2, 3)]


class TestDistinctHoleChaining:
    """The exact Section 4.7 correction: previous-occurrence pointers
    chaining through EXCLUDE holes must not double-count."""

    def _run(self, values, order, exclusion, frame=(3, 3)):
        n = len(values)
        table = Table.from_dict({
            "o": (DataType.INT64, order),
            "x": (DataType.INT64, values),
        })
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(frame[0]),
                                               following(frame[1]),
                                               exclusion))
        got = window_query(
            table, [WindowCall("count", ("x",), distinct=True,
                               algorithm="mst")], spec).columns[-1].to_list()
        want = window_query(
            table, [WindowCall("count", ("x",), distinct=True,
                               algorithm="naive")],
            spec).columns[-1].to_list()
        assert got == want
        return got

    def test_value_repeats_through_current_row_hole(self):
        # value 7 occurs before, AT, and after the excluded current row:
        # the chain through the hole must still count 7 exactly once
        values = [7, 7, 7, 5, 7]
        self._run(values, list(range(5)), FrameExclusion.CURRENT_ROW)

    def test_value_only_in_hole(self):
        # value 9 occurs only at the excluded row -> must vanish
        values = [1, 2, 9, 3, 4]
        got = self._run(values, list(range(5)),
                        FrameExclusion.CURRENT_ROW)
        assert got[2] == 4  # 1,2,3,4 without 9

    def test_group_exclusion_with_duplicate_peer_values(self):
        # peers (equal o) all excluded; their values occur elsewhere too
        values = [3, 3, 3, 8, 8]
        order = [1, 2, 2, 2, 3]
        self._run(values, order, FrameExclusion.GROUP)

    def test_ties_keep_current_row(self):
        values = [4, 4, 4, 4]
        order = [1, 2, 2, 3]
        self._run(values, order, FrameExclusion.TIES)

    def test_exhaustive_small_grid(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 14))
            values = rng.integers(0, 3, size=n).tolist()
            order = rng.integers(0, 4, size=n).tolist()
            exclusion = [FrameExclusion.CURRENT_ROW, FrameExclusion.GROUP,
                         FrameExclusion.TIES][trial % 3]
            self._run(values, order, exclusion, frame=(2, 2))


class TestDenseRankHoleChaining:
    """The same Section 4.7 correction for DENSE_RANK: a smaller key
    whose every frame occurrence sits in an EXCLUDE hole must not count,
    one that also occurs in a piece must count once."""

    def _run(self, keys, order, exclusion, frame=(3, 3), descending=False):
        table = Table.from_dict({
            "o": (DataType.INT64, order),
            "k": (DataType.INT64, keys),
        })
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(frame[0]),
                                               following(frame[1]),
                                               exclusion))
        function_order = (OrderItem("k", descending=descending),)
        got, want = (window_query(
            table, [WindowCall("dense_rank", order_by=function_order,
                               algorithm=algorithm)],
            spec).columns[-1].to_list() for algorithm in ("mst", "naive"))
        assert got == want
        return got

    def test_key_repeats_through_current_row_hole(self):
        # key 1 occurs before, AT and after the excluded current row
        got = self._run([1, 1, 1, 5, 1], list(range(5)),
                        FrameExclusion.CURRENT_ROW)
        assert got[3] == 2

    def test_key_only_in_hole(self):
        # key 0 occurs only at row 1, excluded with its peer row 2:
        # row 2 ranks above key 5 alone
        got = self._run([5, 0, 6, 7], [1, 2, 2, 3], FrameExclusion.GROUP)
        assert got == [2, 1, 2, 4]

    def test_group_exclusion_with_duplicate_peer_keys(self):
        self._run([3, 3, 3, 8, 8], [1, 2, 2, 2, 3], FrameExclusion.GROUP)

    def test_ties_keep_current_row(self):
        self._run([4, 2, 4, 4], [1, 2, 2, 3], FrameExclusion.TIES)

    def test_exhaustive_small_grid(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(2, 14))
            keys = rng.integers(0, 4, size=n).tolist()
            order = rng.integers(0, 4, size=n).tolist()
            exclusion = [FrameExclusion.CURRENT_ROW, FrameExclusion.GROUP,
                         FrameExclusion.TIES][trial % 3]
            self._run(keys, order, exclusion, frame=(2, 2),
                      descending=bool(trial % 2))


class TestSumDistinctCorrections:
    def test_sum_subtracts_hole_only_values(self):
        table = Table.from_dict({
            "o": (DataType.INT64, [1, 2, 3]),
            "x": (DataType.INT64, [10, 99, 10]),
        })
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(
                              preceding(5), following(5),
                              FrameExclusion.CURRENT_ROW))
        got = window_query(
            table, [WindowCall("sum", ("x",), distinct=True)],
            spec).columns[-1].to_list()
        # row 1 excludes the only 99 -> distinct sum = 10
        assert got == [109, 10, 109]

    def test_avg_distinct_with_exclusion_matches_naive(self, rng):
        n = 40
        table = Table.from_dict({
            "o": (DataType.INT64, [int(v) for v in rng.integers(0, 9, n)]),
            "x": (DataType.INT64, [int(v) for v in rng.integers(0, 4, n)]),
        })
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(6), following(6),
                                               FrameExclusion.GROUP))
        got = window_query(
            table, [WindowCall("avg", ("x",), distinct=True,
                               algorithm="mst")], spec).columns[-1].to_list()
        want = window_query(
            table, [WindowCall("avg", ("x",), distinct=True,
                               algorithm="naive")],
            spec).columns[-1].to_list()
        assert_columns_equal(got, want)


@st.composite
def _distinct_views(draw):
    """A partition with per-row frames that may be inverted, peer
    groups, an EXCLUDE clause, FILTER and NULL arguments."""
    n = draw(st.integers(0, 25))
    bound = st.integers(0, n)
    start = np.array([draw(bound) for _ in range(n)], dtype=np.int64)
    end = np.array([draw(bound) for _ in range(n)], dtype=np.int64)
    peers = PeerGroups(np.cumsum([0] + [draw(st.integers(0, 1))
                                        for _ in range(n - 1)])[:n])
    exclusion = draw(st.sampled_from(list(FrameExclusion)))
    pieces = [(np.asarray(lo), np.asarray(hi))
              for lo, hi in exclusion_ranges(start, end, exclusion, peers)]
    columns = {
        "x": (np.array([draw(st.integers(0, 3)) for _ in range(n)],
                       dtype=np.int64),
              np.array([draw(st.booleans()) for _ in range(n)],
                       dtype=np.bool_)),
        "f": (np.array([draw(st.booleans()) for _ in range(n)],
                       dtype=np.bool_), np.ones(n, dtype=np.bool_)),
    }
    part = PartitionView(columns, n, start, end, pieces, peers, exclusion)
    call = WC("count", ("x",), distinct=True,
              filter_where="f" if draw(st.booleans()) else None)
    return CallInput(call, part, skip_null_arg=draw(st.booleans()))


@settings(deadline=None)
@given(_distinct_views())
def test_distinct_probe_equals_the_two_ended_count(inputs):
    """``count(DISTINCT)`` descends only the upper frame end: over
    ``[0, hi)`` the entries before ``lo`` all have ``prev < lo``, so
    subtracting ``lo`` equals the two-ended count over ``[lo, hi)``."""
    tree = distinct._build_tree(distinct._kept_values(inputs)[1])
    two_ended = batched_count(tree.levels, inputs.start_f, inputs.end_f,
                              key_hi=inputs.start_f + 1)
    assert distinct._probe_distinct(tree, inputs).tolist() == \
        two_ended.tolist()
