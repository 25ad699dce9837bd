"""Stable multi-key sorting with NULL placement.

The property test at the end runs longer with
``--hypothesis-profile=long``.
"""

import datetime
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# the normalised key against Python's stable sorted()
# ----------------------------------------------------------------------
_EDGE_INTS = [-2 ** 63, -2 ** 63 + 1, -2 ** 53 - 1, -2 ** 53, 2 ** 53,
              2 ** 53 + 1, 2 ** 63 - 2, 2 ** 63 - 1]
_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                2.0 ** 53, -(2.0 ** 53), 1e308, -1e308, 5e-324]
_EPOCH = datetime.date(1970, 1, 1)


@st.composite
def sort_columns(draw, n):
    """One SortColumn of ``n`` rows plus the oracle's Python values
    (None = NULL): int64 (small and edge values), float (NaN, ±inf,
    -0.0), DATE ordinals, strings or booleans."""
    kind = draw(st.sampled_from(["int", "float", "date", "str", "bool"]))
    if kind == "int":
        element = st.one_of(st.integers(-3, 3), st.sampled_from(_EDGE_INTS))
    elif kind == "float":
        element = st.one_of(st.sampled_from([-1.5, 0.5, 2.0]),
                            st.sampled_from(_EDGE_FLOATS))
    elif kind == "date":
        element = st.dates(datetime.date(1990, 1, 1),
                           datetime.date(1990, 1, 10))
    elif kind == "str":
        element = st.text("ab", max_size=2)
    else:
        element = st.booleans()
    values = draw(st.lists(element, min_size=n, max_size=n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n)) \
        if draw(st.booleans()) else [True] * n
    python = [v if ok else None for v, ok in zip(values, valid)]
    if kind == "date":
        stored = np.array([(v - _EPOCH).days for v in values],
                          dtype=np.int64)
    elif kind == "str":
        stored = [v if ok else None for v, ok in zip(values, valid)]
    else:
        dtype = {"int": np.int64, "float": np.float64,
                 "bool": np.bool_}[kind]
        stored = np.array(values, dtype=dtype)
    column = SortColumn(stored, descending=draw(st.booleans()),
                        nulls_last=draw(st.booleans()),
                        validity=np.array(valid, dtype=np.bool_))
    return column, python


def _oracle_key(value, column):
    """(class, value) whose order under ``sorted(reverse=descending)``
    is the SQL order: NULLS FIRST/LAST as asked, NaN after every
    number in both directions."""
    if value is None:
        first = not column.nulls_last
        if column.descending:
            return (3, 0) if first else (0, 0)
        return (0, 0) if first else (3, 0)
    if isinstance(value, float) and math.isnan(value):
        return (1, 0) if column.descending else (2, 0)
    return (2, value) if column.descending else (1, value)


@st.composite
def sort_problems(draw):
    n = draw(st.integers(0, 30))
    columns = draw(st.lists(sort_columns(n), min_size=1, max_size=3))
    return n, [c for c, _ in columns], [p for _, p in columns]


@settings(deadline=None)
@given(sort_problems())
def test_normalised_argsort_matches_stable_sorted(problem):
    n, columns, python = problem
    expected = list(range(n))
    # Least significant column first: each stable pass keeps the order
    # of the passes before it among its ties.
    for column, values in reversed(list(zip(columns, python))):
        expected = sorted(expected, reverse=column.descending,
                          key=lambda i: _oracle_key(values[i], column))
    order = stable_argsort(columns, n)
    assert order.tolist() == expected

    keys = [tuple(_oracle_key(values[i], column)
                  for column, values in zip(columns, python))
            for i in expected]
    runs = [0]
    for a, b in zip(keys, keys[1:]):
        runs.append(runs[-1] + (a != b))
    assert sorted_equal_runs(columns, order).tolist() == runs[:n]
