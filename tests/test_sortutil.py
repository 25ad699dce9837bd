"""Stable multi-key sorting with NULL placement."""

import numpy as np

from repro.sortutil import SortColumn, sorted_equal_runs, stable_argsort


class TestNumericPath:
    def test_single_key_ascending(self):
        values = np.array([3, 1, 2])
        order = stable_argsort([SortColumn(values)], 3)
        assert order.tolist() == [1, 2, 0]

    def test_descending(self):
        values = np.array([3, 1, 2])
        order = stable_argsort([SortColumn(values, descending=True)], 3)
        assert order.tolist() == [0, 2, 1]

    def test_stability(self):
        values = np.array([1, 1, 0, 1])
        order = stable_argsort([SortColumn(values)], 4)
        assert order.tolist() == [2, 0, 1, 3]

    def test_multi_key(self):
        a = np.array([1, 1, 0])
        b = np.array([5, 3, 9])
        order = stable_argsort([SortColumn(a), SortColumn(b)], 3)
        assert order.tolist() == [2, 1, 0]

    def test_nulls_last_ascending(self):
        values = np.array([3, 0, 1])
        validity = np.array([True, False, True])
        order = stable_argsort(
            [SortColumn(values, validity=validity, nulls_last=True)], 3)
        assert order.tolist() == [2, 0, 1]

    def test_nulls_first(self):
        values = np.array([3, 0, 1])
        validity = np.array([True, False, True])
        order = stable_argsort(
            [SortColumn(values, validity=validity, nulls_last=False)], 3)
        assert order.tolist() == [1, 2, 0]

    def test_empty_columns_identity(self):
        assert stable_argsort([], 4).tolist() == [0, 1, 2, 3]

    def test_floats(self):
        values = np.array([2.5, -1.0, 0.0])
        order = stable_argsort([SortColumn(values)], 3)
        assert order.tolist() == [1, 2, 0]


class TestGenericPath:
    def test_strings(self):
        values = ["pear", "apple", "fig"]
        order = stable_argsort([SortColumn(values)], 3)
        assert order.tolist() == [1, 2, 0]

    def test_strings_descending_with_nulls(self):
        values = ["b", None, "a"]
        validity = np.array([True, False, True])
        order = stable_argsort(
            [SortColumn(values, descending=True, nulls_last=True,
                        validity=validity)], 3)
        assert order.tolist() == [0, 2, 1]

    def test_mixed_numeric_and_string_keys(self):
        nums = np.array([1, 1, 0])
        strs = ["z", "a", "m"]
        order = stable_argsort([SortColumn(nums), SortColumn(strs)], 3)
        assert order.tolist() == [2, 1, 0]

    def test_generic_matches_numeric(self, rng):
        values = rng.integers(0, 10, size=30)
        numeric = stable_argsort([SortColumn(values)], 30)
        generic = stable_argsort([SortColumn(list(values))], 30)
        assert numeric.tolist() == generic.tolist()


class TestPeerGroups:
    def test_equal_runs_numeric(self):
        values = np.array([5, 5, 7, 7, 7, 9])
        order = np.arange(6)
        groups = sorted_equal_runs([SortColumn(values)], order)
        assert groups.tolist() == [0, 0, 1, 1, 1, 2]

    def test_equal_runs_with_nulls(self):
        values = np.array([1, 0, 0, 2])
        validity = np.array([True, False, False, True])
        order = np.array([1, 2, 0, 3])  # nulls first
        groups = sorted_equal_runs(
            [SortColumn(values, validity=validity)], order)
        assert groups.tolist() == [0, 0, 1, 2]

    def test_nans_are_peers(self):
        values = np.array([1.0, np.nan, np.nan, np.nan])
        groups = sorted_equal_runs([SortColumn(values)], np.arange(4))
        assert groups.tolist() == [0, 1, 1, 1]

    def test_equal_runs_strings(self):
        values = ["a", "a", "b"]
        groups = sorted_equal_runs([SortColumn(values)], np.arange(3))
        assert groups.tolist() == [0, 0, 1]

    def test_multi_column_runs(self):
        a = np.array([1, 1, 1])
        b = np.array([2, 2, 3])
        groups = sorted_equal_runs([SortColumn(a), SortColumn(b)],
                                   np.arange(3))
        assert groups.tolist() == [0, 0, 1]

    def test_empty(self):
        groups = sorted_equal_runs([SortColumn(np.array([]))],
                                   np.array([], dtype=np.int64))
        assert len(groups) == 0
