"""The framed DENSE_RANK index (Section 4.4): presence table and range
tree."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache import structure_breakdown
from repro.mst.build import choose_index_dtype
from repro.mst.decompose import num_levels
from repro.mst.stats import dense_rank_index_bytes, range_tree_bytes
from repro.mst.vectorized import BLOCK_ROWS
from repro.preprocess.occurrences import previous_occurrence
from repro.rangetree import DenseRankIndex
from repro.rangetree.dense import (SAMPLE_EVERY, WORD_BITS, PresenceTable,
                                   RangeTree)


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
        index = RangeTree(keys, fanout=fanout)
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
        for classes, layout in ((9, PresenceTable), (100, RangeTree)):
            keys = rng.integers(0, classes, size=83)
            keys[0] = classes - 1
            index = DenseRankIndex(keys, fanout=fanout)
            assert isinstance(index, layout)
            assert structure_breakdown(index).total == index.memory_bytes()

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 27, 64, 100, 60_000])
    def test_memory_bytes_predicted_exactly(self, fanout, n, rng):
        """``range_tree_bytes`` needs only (n, f, k) for dense rank keys,
        the range tree's input: ``prev`` and the two key-count tables
        count as levels, every anchor and offset as pointers."""
        keys = np.unique(rng.integers(0, 50, size=n), return_inverse=True)[1]
        index = RangeTree(keys, fanout=fanout)
        breakdown = structure_breakdown(index)
        assert range_tree_bytes(n, fanout, SAMPLE_EVERY) == \
            index.memory_bytes() == breakdown.total
        assert breakdown.levels == n * index.prev.itemsize + \
            2 * (n + 1) * choose_index_dtype(n + 1).itemsize
        assert breakdown.prefixes == breakdown.other == 0

    @pytest.mark.parametrize("classes", [1, 8, 9, 16, 17, 32, 33, 64, 65,
                                         1_000])
    @pytest.mark.parametrize("n", [0, 100, 60_000])
    def test_index_bytes_predicted_exactly(self, classes, n, rng):
        """``dense_rank_index_bytes`` takes the class count: at most
        ``WORD_BITS`` classes are a presence table of words as wide as
        the classes need, more the range tree."""
        span = min(n, classes)  # dense rank keys span at most n classes
        keys = rng.permutation(np.arange(n) % classes)
        index = DenseRankIndex(keys)
        table = span <= WORD_BITS
        assert isinstance(index, PresenceTable if table else RangeTree)
        breakdown = structure_breakdown(index)
        assert dense_rank_index_bytes(n, span, 2, SAMPLE_EVERY) == \
            index.memory_bytes() == breakdown.total
        assert (breakdown.levels == breakdown.total) == table
        if table:  # the narrowest of 8, 16, 32 and 64 bits that holds them
            bits = next(b for b in (8, 16, 32, 64) if span <= b)
            assert index.words.itemsize * 8 == bits

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 27, 64, 100])
    def test_inner_trees_as_tall_as_their_outer_run(self, fanout, n, rng):
        """Outer and prev trees are full height, the inner tree of outer
        level L has L + 1 levels, and none of them keeps its keys."""
        keys = rng.integers(0, 6, size=n)
        index = RangeTree(keys, fanout=fanout)
        height = num_levels(n, fanout)
        assert index.height == height
        assert len(index.prev_tree.bridges) == height
        assert [len(inner.bridges) for inner in index.inner] == \
            [level + 1 for level in range(height)]
        assert not any(tree.keys for tree in index.trees())
        assert np.array_equal(index.prev, previous_occurrence(keys))
        thresholds = np.arange(-2, 9)
        assert np.array_equal(index.key_counts.below(thresholds),
                              np.searchsorted(np.sort(keys), thresholds))
        assert np.array_equal(
            index.prev_counts.below(thresholds),
            np.searchsorted(np.sort(index.prev), thresholds))

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_frames_that_are_one_aligned_outer_run(self, fanout, rng):
        """A frame that is exactly one aligned run of outer level L is
        one covering run there, and a threshold above the run's keys
        reads its inner tree's level L, the top level included."""
        n = fanout ** 4
        keys = rng.integers(0, 7, size=n)
        index = RangeTree(keys, fanout=fanout)
        thresholds = np.arange(9)
        for level in range(index.height):
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
        index = RangeTree(np.asarray(keys, dtype=np.int64), fanout=fanout)
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
        index = RangeTree(keys, fanout=fanout)
        lo = np.maximum(np.arange(n) - 13, 0)
        hi = np.arange(n) + 1
        got = index.batched_dense_rank(lo, hi, keys)
        for i in range(0, n, 7):
            want = len({k for k in keys[lo[i]:hi[i]]
                        if k < keys[i]}) + 1
            assert got[i] == want


# ----------------------------------------------------------------------
# generated cases against a brute force written here
# ----------------------------------------------------------------------
def _brute_force_ranks(keys, lo, hi, thresholds):
    """Per query: 1 + the distinct keys below its threshold in
    ``[lo, hi)``, by sorting every frame's qualifying keys."""
    keys = np.asarray(keys, dtype=np.int64)
    width = max(int(np.max(hi - lo, initial=0)), 1)
    at = lo[:, None] + np.arange(width)
    inside = at < hi[:, None]
    values = keys[np.minimum(at, len(keys) - 1)] if len(keys) else at
    none = np.iinfo(np.int64).max
    below = np.where(inside & (values < thresholds[:, None]), values, none)
    below.sort(axis=1)
    first = np.ones(below.shape, dtype=bool)
    first[:, 1:] = below[:, 1:] != below[:, :-1]
    return 1 + (first & (below != none)).sum(axis=1)


def _layouts(keys, fanout):
    """The index ``keys`` select, and the range tree over them too when
    they select the presence table."""
    index = DenseRankIndex(keys, fanout=fanout)
    assert isinstance(index, PresenceTable if max(keys, default=0) <
                      WORD_BITS else RangeTree)
    if isinstance(index, RangeTree):
        return [index]
    return [index, RangeTree(keys, fanout=fanout)]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fanout=st.sampled_from([2, 3, 4]), exponent=st.integers(0, 4),
       shift=st.sampled_from([-1, 0, 1]), classes=st.integers(1, 130),
       seed=st.integers(0, 2 ** 32 - 1))
@example(fanout=2, exponent=4, shift=1, classes=9, seed=4)
@example(fanout=2, exponent=4, shift=1, classes=17, seed=5)
@example(fanout=2, exponent=4, shift=1, classes=33, seed=6)
@example(fanout=4, exponent=4, shift=0, classes=63, seed=1)
@example(fanout=4, exponent=4, shift=0, classes=64, seed=2)
@example(fanout=4, exponent=4, shift=0, classes=65, seed=3)
def test_batched_dense_rank_against_brute_force(fanout, exponent, shift,
                                                classes, seed):
    """n on, just below and just above a power of the fanout; random,
    empty, inverted and whole-array frames; thresholds inside the key
    domain and below and above it. Up to ``WORD_BITS`` classes, the
    presence table and the range tree over the same keys both answer;
    the examples put the top class on the first bit of a wider word and
    on either side of ``WORD_BITS``."""
    n = max(fanout ** exponent + shift, 0)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, classes, size=n)
    keys[:1] = classes - 1  # the keys span every class
    m = 60
    lo = rng.integers(0, n + 1, size=m)
    hi = rng.integers(0, n + 1, size=m)  # about half of them inverted
    lo[:4], hi[:4] = 0, n
    hi[4:8] = lo[4:8]
    thresholds = rng.integers(-2, classes + 2, size=m)
    thresholds[:4] = -1, classes, WORD_BITS, WORD_BITS + 1
    want = _brute_force_ranks(keys, lo, hi, thresholds).tolist()
    for index in _layouts(keys, fanout):
        assert index.batched_dense_rank(lo, hi, thresholds).tolist() == want


def test_more_queries_than_one_block(rng):
    """Blocks of :data:`BLOCK_ROWS` queries: the last one partial; both
    layouts over 40 classes, the range tree over 100."""
    n = 3_000
    m = BLOCK_ROWS + 1_000
    lo = rng.integers(0, n + 1, size=m)
    hi = np.minimum(lo + rng.integers(-5, 120, size=m), n)
    for classes in (40, 100):
        keys = rng.integers(0, classes, size=n)
        thresholds = rng.integers(-2, classes + 2, size=m)
        want = _brute_force_ranks(keys, lo, hi, thresholds).tolist()
        for index in _layouts(keys, 2):
            assert index.batched_dense_rank(lo, hi,
                                            thresholds).tolist() == want
