"""Competitor algorithms: naive oracle, incremental, Tableau-style."""

import numpy as np
import pytest

from repro.baselines import (
    IncrementalDistinct,
    incremental_distinct_count,
    incremental_percentile_disc,
    naive_distinct_aggregate,
    naive_distinct_count,
    naive_kth,
    naive_percentile_disc,
    naive_rank,
    tableau_window_percentile,
)
from repro.baselines.naive import naive_dense_rank, naive_percentile_cont


def _sliding(n, width):
    start = np.maximum(np.arange(n) - width, 0)
    end = np.arange(n) + 1
    return start, end


class TestNaive:
    def test_distinct_count_simple(self):
        values = [1, 2, 1, 3]
        keep = [True] * 4
        pieces = [(np.zeros(4, dtype=np.int64),
                   np.arange(1, 5, dtype=np.int64))]
        assert naive_distinct_count(values, keep, pieces) == [1, 2, 2, 3]

    def test_distinct_count_respects_keep(self):
        values = [1, 2, 1]
        keep = [True, False, True]
        pieces = [(np.zeros(3, dtype=np.int64),
                   np.arange(1, 4, dtype=np.int64))]
        assert naive_distinct_count(values, keep, pieces) == [1, 1, 1]

    def test_distinct_aggregate_first_seen_order(self):
        values = [3, 1, 3, 2]
        keep = [True] * 4
        pieces = [(np.zeros(4, dtype=np.int64),
                   np.arange(1, 5, dtype=np.int64))]
        got = naive_distinct_aggregate(values, keep, pieces, list)
        assert got == [[3], [3, 1], [3, 1], [3, 1, 2]]

    def test_percentile_disc(self):
        values = [5.0, 1.0, 3.0]
        keep = [True] * 3
        pieces = [(np.zeros(3, dtype=np.int64),
                   np.arange(1, 4, dtype=np.int64))]
        assert naive_percentile_disc(values, keep, pieces, 0.5) == \
            [5.0, 1.0, 3.0]

    def test_percentile_cont_interpolates(self):
        values = [0.0, 10.0]
        keep = [True] * 2
        pieces = [(np.zeros(2, dtype=np.int64),
                   np.arange(1, 3, dtype=np.int64))]
        got = naive_percentile_cont(values, keep, pieces, 0.5)
        assert got == [0.0, 5.0]

    def test_rank_modes(self):
        keys = [10, 10, 5]
        keep = [True] * 3
        pieces = [(np.zeros(3, dtype=np.int64),
                   np.full(3, 3, dtype=np.int64))]
        assert naive_rank(keys, keep, pieces, "strict") == [2, 2, 1]
        # at_most counts <= (including the row itself), plus one
        assert naive_rank(keys, keep, pieces, "at_most") == [4, 4, 2]

    def test_dense_rank(self):
        keys = [10, 10, 5, 7]
        keep = [True] * 4
        pieces = [(np.zeros(4, dtype=np.int64),
                   np.full(4, 4, dtype=np.int64))]
        assert naive_dense_rank(keys, keep, pieces) == [3, 3, 1, 2]

    def test_kth_none_when_out_of_range(self):
        got = naive_kth([1, 2], ["a", "b"], [True, True],
                        [(np.zeros(2, dtype=np.int64),
                          np.full(2, 2, dtype=np.int64))], [5, 0])
        assert got == [None, "a"]


class TestIncremental:
    def test_distinct_matches_naive(self, rng):
        n = 150
        values = rng.integers(0, 12, size=n).tolist()
        start, end = _sliding(n, 20)
        got = incremental_distinct_count(values, start, end)
        want = naive_distinct_count(values, [True] * n, [(start, end)])
        assert got == want

    def test_distinct_non_monotonic(self, rng):
        n = 100
        values = rng.integers(0, 9, size=n).tolist()
        start = rng.integers(0, n, size=n)
        end = np.minimum(start + rng.integers(0, 30, size=n), n)
        got = incremental_distinct_count(values, start, end)
        for i in range(n):
            assert got[i] == len(set(values[start[i]:end[i]]))

    def test_percentile_matches_naive(self, rng):
        n = 120
        values = rng.normal(size=n).tolist()
        start, end = _sliding(n, 15)
        got = incremental_percentile_disc(values, start, end, 0.75)
        want = naive_percentile_disc(values, [True] * n, [(start, end)],
                                     0.75)
        assert got == want

    def test_percentile_empty_frames(self):
        values = [1.0, 2.0]
        start = np.array([1, 2])
        end = np.array([1, 2])
        assert incremental_percentile_disc(values, start, end, 0.5) == \
            [None, None]

    def test_work_counter_monotonic_vs_random(self, rng):
        n = 200
        values = rng.integers(0, 30, size=n).tolist()
        start, end = _sliding(n, 10)
        smooth = IncrementalDistinct(values)
        for i in range(n):
            smooth.move_to(int(start[i]), int(end[i]))
        jumpy = IncrementalDistinct(values)
        rstart = rng.integers(0, n, size=n)
        rend = np.minimum(rstart + 11, n)
        for i in range(n):
            jumpy.move_to(int(rstart[i]), int(rend[i]))
        assert jumpy.work > smooth.work


class TestTableau:
    def test_matches_sorted_window(self, rng):
        values = rng.integers(0, 40, size=60).tolist()
        got = tableau_window_percentile(values, 0.5, 9)
        for i in range(60):
            window = sorted(values[max(i - 9, 0):i + 1])
            k = max(int(np.ceil(0.5 * len(window))) - 1, 0)
            assert got[i] == window[k]

    def test_following_rows(self):
        values = [3, 1, 2]
        got = tableau_window_percentile(values, 1.0, 0, rows_after=2)
        assert got == [3, 2, 2]

    def test_nones_skipped(self):
        values = [1, None, 3]
        got = tableau_window_percentile(values, 0.5, 2)
        assert got == [1, 1, 1]

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            tableau_window_percentile([1], 1.5, 1)
