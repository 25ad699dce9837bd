"""Range tree for framed DENSE_RANK (Section 4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rangetree import DenseRankIndex


def _oracle_distinct_below(keys, lo, hi, threshold):
    return len({k for k in keys[lo:hi] if k < threshold})


def _distinct_below(index, lo, hi, threshold):
    """Distinct keys below ``threshold`` in frame ``[lo, hi)``, read off
    the batched kernel: a row with rank key ``threshold`` has dense rank
    one more than that."""
    return int(index.batched_dense_rank(np.array([lo]), np.array([hi]),
                                        np.array([threshold]))[0]) - 1


class TestDenseRankIndex:
    @pytest.mark.parametrize("fanout", [2, 4])
    def test_distinct_below_random(self, fanout, rng):
        n = 90
        keys = rng.integers(0, 12, size=n)
        index = DenseRankIndex(keys, fanout=fanout)
        bounds = np.sort(rng.integers(0, n + 1, size=(2, 120)), axis=0)
        thresholds = rng.integers(0, 13, size=120)
        got = index.batched_dense_rank(bounds[0], bounds[1], thresholds)
        for i, (lo, hi) in enumerate(bounds.T):
            assert got[i] == 1 + _oracle_distinct_below(
                keys, lo, hi, thresholds[i])

    def test_dense_rank(self, rng):
        n = 60
        keys = rng.integers(0, 8, size=n)
        index = DenseRankIndex(keys)
        lo = np.maximum(np.arange(n) - 14, 0)
        hi = np.arange(n) + 1
        got = index.batched_dense_rank(lo, hi, keys)
        for i in range(n):
            expected = _oracle_distinct_below(keys, lo[i], hi[i], keys[i]) + 1
            assert got[i] == expected

    def test_all_distinct_keys(self):
        keys = np.arange(20)
        index = DenseRankIndex(keys)
        assert _distinct_below(index, 0, 20, 10) == 10
        assert _distinct_below(index, 5, 15, 10) == 5

    def test_all_equal_keys(self):
        keys = np.zeros(16, dtype=np.int64)
        index = DenseRankIndex(keys)
        assert _distinct_below(index, 0, 16, 0) == 0
        assert _distinct_below(index, 0, 16, 1) == 1

    def test_empty_and_tiny(self):
        index = DenseRankIndex(np.array([], dtype=np.int64))
        assert _distinct_below(index, 0, 0, 5) == 0
        single = DenseRankIndex(np.array([3]))
        assert _distinct_below(single, 0, 1, 3) + 1 == 1
        assert _distinct_below(single, 0, 1, 4) + 1 == 2

    def test_memory_bytes_positive(self, rng):
        index = DenseRankIndex(rng.integers(0, 5, size=50))
        assert index.memory_bytes() > 0

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=64),
           st.integers(0, 64), st.integers(0, 64), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis(self, keys, a, b, t):
        n = len(keys)
        lo, hi = sorted((a % (n + 1), b % (n + 1)))
        index = DenseRankIndex(np.asarray(keys, dtype=np.int64))
        assert _distinct_below(index, lo, hi, t) == \
            _oracle_distinct_below(keys, lo, hi, t)


class TestBatchedDenseRank:
    def test_matches_oracle(self, rng):
        n = 300
        keys = rng.integers(0, 15, size=n)
        index = DenseRankIndex(keys)
        lo = rng.integers(0, n, size=n)
        hi = np.minimum(lo + rng.integers(1, 60, size=n), n)
        got = index.batched_dense_rank(lo, hi, keys)
        for i in range(n):
            assert got[i] == 1 + _oracle_distinct_below(keys, lo[i], hi[i],
                                                        keys[i])

    def test_single_row(self):
        index = DenseRankIndex(np.array([5]))
        got = index.batched_dense_rank(np.array([0]), np.array([1]),
                                       np.array([5]))
        assert got.tolist() == [1]

    @pytest.mark.parametrize("fanout", [2, 4])
    def test_fanouts(self, fanout, rng):
        n = 120
        keys = rng.integers(0, 8, size=n)
        index = DenseRankIndex(keys, fanout=fanout)
        lo = np.maximum(np.arange(n) - 13, 0)
        hi = np.arange(n) + 1
        got = index.batched_dense_rank(lo, hi, keys)
        for i in range(0, n, 7):
            want = len({k for k in keys[lo[i]:hi[i]]
                        if k < keys[i]}) + 1
            assert got[i] == want
