"""Windowed MODE: range-mode index, incremental kernel, naive, SQL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_window_table
from repro.rangemode import IncrementalMode, RangeModeIndex, windowed_mode
from repro.sql import Catalog, execute
from repro.table import DataType, Table
from repro.window import (
    FrameExclusion,
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
    window_query,
)
from repro.window.frame import OrderItem


def _oracle_mode(values, lo, hi, first_seen):
    counts = {}
    for j in range(lo, hi):
        counts[values[j]] = counts.get(values[j], 0) + 1
    if not counts:
        return None, 0
    best = max(counts.items(), key=lambda kv: (kv[1], -first_seen[kv[0]]))
    return best


def _first_seen(values):
    seen = {}
    for i, v in enumerate(values):
        if v not in seen:
            seen[v] = i
    return seen


class TestRangeModeIndex:
    @pytest.mark.parametrize("block_size", [None, 1, 3, 10, 100])
    def test_matches_oracle(self, block_size, rng):
        n = 120
        values = rng.integers(0, 7, size=n).tolist()
        first = _first_seen(values)
        index = RangeModeIndex(values, block_size=block_size)
        for _ in range(150):
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            got = index.query(int(lo), int(hi))
            want = _oracle_mode(values, lo, hi, first)
            if want[0] is None:
                assert got == (None, 0)
            else:
                assert got == want, (lo, hi, block_size)

    def test_strings(self):
        values = ["a", "b", "b", "a", "c", "a"]
        index = RangeModeIndex(values)
        assert index.query(0, 6) == ("a", 3)
        assert index.query(1, 3) == ("b", 2)
        # tie in [0, 4): a and b both twice; a appeared first
        assert index.query(0, 4) == ("a", 2)

    def test_empty_and_bounds(self):
        index = RangeModeIndex([])
        assert index.query(0, 0) == (None, 0)
        index = RangeModeIndex([5])
        assert index.query(0, 1) == (5, 1)
        assert index.query(-4, 99) == (5, 1)

    def test_memory_entries(self):
        index = RangeModeIndex(list(range(100)), block_size=10)
        assert index.memory_entries() == 10 * 11 // 2

    @given(st.lists(st.integers(0, 4), max_size=60),
           st.integers(0, 60), st.integers(0, 60), st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_hypothesis(self, values, a, b, block):
        n = len(values)
        lo, hi = sorted((a % (n + 1), b % (n + 1)))
        index = RangeModeIndex(values, block_size=block)
        want = _oracle_mode(values, lo, hi, _first_seen(values))
        got = index.query(lo, hi)
        if want[0] is None:
            assert got == (None, 0)
        else:
            assert got == want


class TestIncrementalMode:
    def test_sliding_matches_oracle(self, rng):
        n = 150
        values = rng.integers(0, 6, size=n).tolist()
        first = _first_seen(values)
        start = np.maximum(np.arange(n) - 12, 0)
        end = np.arange(n) + 1
        got = windowed_mode(values, start, end)
        for i in range(n):
            want = _oracle_mode(values, int(start[i]), int(end[i]), first)
            assert got[i] == want[0]

    def test_non_monotonic(self, rng):
        n = 80
        values = rng.integers(0, 5, size=n).tolist()
        first = _first_seen(values)
        start = rng.integers(0, n, size=n)
        end = np.minimum(start + rng.integers(0, 25, size=n), n)
        got = windowed_mode(values, start, end)
        for i in range(n):
            want = _oracle_mode(values, int(start[i]), int(end[i]), first)
            assert got[i] == want[0]

    def test_work_counter(self, rng):
        values = rng.integers(0, 5, size=50).tolist()
        state = IncrementalMode(values)
        state.move_to(0, 50)
        assert state.work == 50
        state.move_to(10, 50)
        assert state.work == 60


class TestWindowedModeFunction:
    TABLE = make_window_table(n=100, seed=11)

    SPECS = [
        WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                   frame=FrameSpec.rows(preceding(8), current_row())),
        WindowSpec(order_by=(OrderItem("o"),),
                   frame=FrameSpec.rows(preceding(5), following(5))),
        WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                   frame=FrameSpec.rows(preceding(8), following(3),
                                        FrameExclusion.GROUP)),
    ]

    @pytest.mark.parametrize("spec_index", range(len(SPECS)))
    def test_against_naive(self, spec_index):
        spec = self.SPECS[spec_index]
        want = window_query(
            self.TABLE, [WindowCall("mode", ("x",), algorithm="naive")],
            spec).columns[-1].to_list()
        got = window_query(
            self.TABLE, [WindowCall("mode", ("x",))],
            spec).columns[-1].to_list()
        assert got == want

    def test_with_filter(self):
        spec = self.SPECS[0]
        want = window_query(
            self.TABLE, [WindowCall("mode", ("x",), filter_where="flag",
                                    algorithm="naive")],
            spec).columns[-1].to_list()
        got = window_query(
            self.TABLE, [WindowCall("mode", ("x",), filter_where="flag",
                                    algorithm="mst")],
            spec).columns[-1].to_list()
        assert got == want


    @pytest.mark.parametrize("algorithm", ["mst", "naive"])
    def test_tie_goes_to_the_partitions_first_appearance(self, algorithm):
        # Partition 0 holds 7 before anything else; partition 1 holds
        # 5 before 7. Partition 1's frames tie 5 and 7, and its own first
        # appearance (5) must win over the group's first appearance (7).
        table = Table.from_dict({
            "g": (DataType.INT64, [0, 0, 1, 1, 1, 1]),
            "o": (DataType.INT64, [1, 2, 1, 2, 3, 4]),
            "x": (DataType.INT64, [7, 3, 5, 7, 7, 5]),
        })
        spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(3), current_row()))
        got = window_query(
            table, [WindowCall("mode", ("x",), algorithm=algorithm)],
            spec).columns[-1].to_list()
        # Partition 0: {7}, {7, 3} -> 7 (first appearance wins the tie).
        # Partition 1: {5}, {5, 7}, {5, 7, 7}, {5, 7, 7, 5}.
        assert got == [7, 7, 5, 5, 7, 5]


class TestModeSql:
    def _catalog(self):
        table = Table.from_dict({
            "o": (DataType.INT64, [1, 2, 3, 4, 5, 6]),
            "v": (DataType.INT64, [7, 7, 9, 9, 9, 7]),
            "g": (DataType.STRING, ["a", "a", "a", "b", "b", "b"]),
        })
        return Catalog({"t": table})

    def test_windowed_mode(self):
        out = execute("""
            select mode(v) over (order by o rows between 2 preceding
              and current row) m
            from t order by o
        """, self._catalog())
        assert out.column("m").to_list() == [7, 7, 7, 9, 9, 9]

    def test_group_by_mode(self):
        out = execute("select g, mode() within group (order by v) m "
                      "from t group by g order by g", self._catalog())
        assert out.to_rows() == [("a", 7), ("b", 9)]

    def test_mode_direct_argument(self):
        out = execute("select mode(v) m from t", self._catalog())
        # 7 and 9 both appear 3 times; 7 appeared first
        assert out.row(0) == (7,)
