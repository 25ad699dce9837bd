"""Run decomposition: coverage, alignment and size bounds of the
covering-run peel the lock-step oracles (``conftest.covering_runs``)
are built on, and the tree's level count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering_runs, max_runs_per_level
from repro.mst.decompose import num_levels


def _runs(lo, hi, fanout, n):
    """``(level, start, stop)`` of every query's covering runs, in the
    peel's order."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    runs = [[] for _ in lo]
    for level, start, stop, mask in covering_runs(
            fanout, num_levels(n, fanout), lo, hi):
        for i in np.flatnonzero(mask):
            runs[i].append((level, int(start[i]), int(stop[i])))
    return runs


def test_empty_range():
    assert _runs([3], [3], 2, 10) == [[]]
    assert _runs([0], [0], 2, 0) == [[]]


def test_full_range_single_run_when_power():
    assert _runs([0], [8], 2, 8) == [[(3, 0, 8)]]


def _check_decomposition(lo, hi, fanout, n):
    (runs,) = _runs([lo], [hi], fanout, n)
    covered = []
    for level, start, stop in runs:
        length = fanout ** level
        assert stop - start == length, "whole runs only"
        assert start % length == 0, "aligned runs only"
        assert lo <= start and stop <= hi, "runs inside the query range"
        assert stop <= n
        covered.extend(range(start, stop))
    assert sorted(covered) == list(range(lo, hi)), "exact disjoint coverage"
    levels = [level for level, _, _ in runs]
    assert levels == sorted(levels), "bottom-up"
    for level in set(levels):
        assert levels.count(level) <= max_runs_per_level(fanout)


@pytest.mark.parametrize("fanout", [2, 3, 4, 7, 32])
def test_decomposition_exhaustive_small(fanout):
    n = 20
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            _check_decomposition(lo, hi, fanout, n)


@given(st.integers(2, 16), st.integers(0, 300), st.integers(0, 300),
       st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_decomposition_property(fanout, a, b, n):
    lo, hi = sorted((a % (n + 1), b % (n + 1)))
    _check_decomposition(lo, hi, fanout, n)


def test_decompose_ranges_multiple():
    """One batch covers several ranges (the pieces of an EXCLUDE frame,
    or one range per row), each on its own."""
    runs = _runs([0, 5], [3, 9], 2, 10)
    covered = [sorted(p for _, s, e in rs for p in range(s, e))
               for rs in runs]
    assert covered == [[0, 1, 2], [5, 6, 7, 8]]


@pytest.mark.parametrize("n,fanout,expected", [
    (0, 2, 1), (1, 2, 1), (2, 2, 2), (3, 2, 3), (4, 2, 3),
    (8, 2, 4), (9, 2, 5), (1000, 10, 4), (1, 32, 1), (33, 32, 3),
])
def test_num_levels(n, fanout, expected):
    assert num_levels(n, fanout) == expected
