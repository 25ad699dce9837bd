"""Range tree for framed DENSE_RANK (Section 4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import structure_breakdown
from repro.mst.decompose import num_levels
from repro.preprocess.occurrences import previous_occurrence
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

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_memory_bytes_is_the_structure_breakdown(self, fanout, rng):
        index = DenseRankIndex(rng.integers(0, 9, size=83), fanout=fanout)
        assert structure_breakdown(index).total == index.memory_bytes()

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 27, 64, 100])
    def test_inner_trees_as_tall_as_their_outer_run(self, fanout, n, rng):
        keys = rng.integers(0, 6, size=n)
        index = DenseRankIndex(keys, fanout=fanout)
        height = num_levels(n, fanout)
        assert len(index.key_levels) == height
        assert [inner.height for inner in index.inner] == \
            [min(level + 1, height) for level in range(height)]
        assert np.array_equal(index.prev, previous_occurrence(keys))

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_frames_that_are_one_aligned_outer_run(self, fanout, rng):
        """A frame that is exactly one aligned run of outer level L is
        one covering run there, and a threshold above the run's keys
        reads its inner tree's level L, the top level included."""
        n = fanout ** 4
        keys = rng.integers(0, 7, size=n)
        index = DenseRankIndex(keys, fanout=fanout)
        thresholds = np.arange(9)
        for level in range(len(index.key_levels)):
            run = fanout ** level
            for start in range(0, n - run + 1, run):
                lo = np.full(len(thresholds), start)
                got = index.batched_dense_rank(lo, lo + run, thresholds)
                want = [1 + _oracle_distinct_below(keys, start, start + run,
                                                   t) for t in thresholds]
                assert got.tolist() == want, (level, start)

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=64),
           st.integers(0, 64), st.integers(0, 64), st.integers(0, 7),
           st.sampled_from([2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis(self, keys, a, b, t, fanout):
        n = len(keys)
        lo, hi = sorted((a % (n + 1), b % (n + 1)))
        index = DenseRankIndex(np.asarray(keys, dtype=np.int64),
                               fanout=fanout)
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
