"""Merge sort tree queries against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lockstep_count
from repro.mst import AVG, MAX, MIN, SUM, MergeSortTree
from repro.mst.build import build_levels_numpy, build_levels_scalar
from repro.mst.stats import measured_vs_model
from repro.mst.vectorized import batched_aggregate, batched_count


def _oracle_count(keys, slab_ranges, key_ranges):
    total = 0
    for lo, hi in slab_ranges:
        for i in range(max(lo, 0), min(hi, len(keys))):
            for klo, khi in key_ranges:
                if (klo is None or keys[i] >= klo) and \
                        (khi is None or keys[i] < khi):
                    total += 1
    return total


class TestCount:
    @pytest.mark.parametrize("fanout,k,bridged", [
        (2, 32, True), (2, 32, False), (3, 1, True), (32, 32, True),
        (4, 8, False),
    ])
    def test_count_below_random(self, fanout, k, bridged, rng):
        """The tree's count, and a binary search per covering run over
        the same levels' keys, which reads no bridge."""
        n = 150
        keys = rng.integers(-1, n, size=n)
        tree = MergeSortTree(keys, fanout=fanout, sample_every=k)
        for _ in range(100):
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            threshold = int(rng.integers(-2, n + 2))
            if bridged:
                got = tree.count_below(lo, hi, threshold)
            else:
                got = int(lockstep_count(tree.levels, np.array([lo]),
                                         np.array([hi]),
                                         np.array([threshold]))[0])
            assert got == int(np.sum(keys[lo:hi] < threshold))

    def test_count_key_range(self, rng):
        n = 100
        keys = rng.integers(0, 30, size=n)
        tree = MergeSortTree(keys, fanout=2)
        for _ in range(50):
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            klo, khi = sorted(rng.integers(0, 31, size=2))
            got = tree.count([(lo, hi)], [(int(klo), int(khi))])
            assert got == _oracle_count(keys, [(lo, hi)],
                                        [(int(klo), int(khi))])

    def test_count_multiple_slab_ranges(self, rng):
        n = 80
        keys = rng.integers(0, 20, size=n)
        tree = MergeSortTree(keys, fanout=2)
        ranges = [(5, 20), (30, 31), (50, 78)]
        got = tree.count(ranges, [(None, 10)])
        assert got == _oracle_count(keys, ranges, [(None, 10)])

    def test_count_multiple_key_ranges(self, rng):
        n = 80
        keys = rng.integers(0, 20, size=n)
        tree = MergeSortTree(keys, fanout=2)
        key_ranges = [(0, 5), (10, 15)]
        got = tree.count([(10, 70)], key_ranges)
        assert got == _oracle_count(keys, [(10, 70)], key_ranges)

    def test_empty_tree(self):
        tree = MergeSortTree(np.array([], dtype=np.int64))
        assert tree.count([(0, 0)], [(None, 5)]) == 0
        assert tree.count_qualifying([(None, None)]) == 0

    def test_out_of_bounds_ranges_clamped(self, rng):
        keys = rng.integers(0, 10, size=20)
        tree = MergeSortTree(keys)
        assert tree.count([(-5, 100)], [(None, 100)]) == 20

    def test_cascaded_equals_plain(self, rng):
        """Fractional cascading is an optimisation, never a semantic
        change (Section 4.2): the cascaded descent equals a binary search
        per covering run, which reads no bridge."""
        n = 130
        keys = rng.integers(0, 40, size=n)
        for fanout, k in [(2, 1), (2, 8), (4, 4), (8, 32)]:
            levels = build_levels_numpy(keys, fanout=fanout, sample_every=k)
            lo = rng.integers(0, n + 1, size=60)
            hi = np.minimum(lo + rng.integers(0, n + 1, size=60), n)
            t = rng.integers(-1, 41, size=60)
            assert np.array_equal(batched_count(levels, lo, hi, t),
                                  lockstep_count(levels, lo, hi, t))


class TestSelect:
    @pytest.mark.parametrize("fanout", [2, 3, 32])
    def test_select_kth_in_frame(self, fanout, rng):
        n = 120
        perm = rng.permutation(n)
        tree = MergeSortTree(perm, fanout=fanout, sample_every=8)
        for _ in range(100):
            a, b = sorted(rng.integers(0, n + 1, size=2))
            if a == b:
                continue
            k = int(rng.integers(0, b - a))
            slab, key = tree.select(k, [(int(a), int(b))])
            qualifying = [(i, v) for i, v in enumerate(perm)
                          if a <= v < b]
            assert (slab, key) == qualifying[k]

    def test_select_multiple_key_ranges(self, rng):
        n = 60
        perm = rng.permutation(n)
        tree = MergeSortTree(perm, fanout=2)
        ranges = [(0, 10), (20, 25), (40, 60)]
        qualifying = [(i, v) for i, v in enumerate(perm)
                      if any(lo <= v < hi for lo, hi in ranges)]
        for k in range(len(qualifying)):
            assert tree.select(k, ranges) == qualifying[k]

    def test_select_out_of_range_raises(self, rng):
        tree = MergeSortTree(rng.permutation(10))
        with pytest.raises(IndexError):
            tree.select(5, [(0, 5)])
        with pytest.raises(IndexError):
            tree.select(-1, [(0, 5)])

    def test_select_empty_tree_raises(self):
        tree = MergeSortTree(np.array([], dtype=np.int64))
        with pytest.raises(IndexError):
            tree.select(0, [(None, None)])


class TestAggregate:
    def test_sum_aggregate(self, rng):
        n = 90
        keys = rng.integers(-1, n, size=n)
        payload = rng.integers(0, 100, size=n).astype(np.float64)
        tree = MergeSortTree(keys, fanout=2, aggregate=SUM, payload=payload)
        for _ in range(80):
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            t = int(rng.integers(-1, n + 1))
            expected = [payload[i] for i in range(lo, hi) if keys[i] < t]
            got = tree.aggregate([(lo, hi)], t)
            if expected:
                assert got == pytest.approx(sum(expected))
            else:
                assert got is None

    @pytest.mark.parametrize("spec,reducer", [
        (MIN, min), (MAX, max),
    ])
    def test_min_max_aggregate(self, spec, reducer, rng):
        """The tree's aggregate, and the batched kernel over the faithful
        multiway-merge build of the same levels."""
        n = 60
        keys = rng.integers(0, n, size=n)
        payload = rng.integers(0, 50, size=n)
        tree = MergeSortTree(keys, fanout=3, aggregate=spec,
                             payload=payload)
        scalar = build_levels_scalar(keys, fanout=3, aggregate=spec,
                                     payload=payload)
        empty = np.inf if spec is MIN else -np.inf
        for _ in range(50):
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            t = int(rng.integers(0, n + 1))
            expected = [payload[i] for i in range(lo, hi) if keys[i] < t]
            got = tree.aggregate([(lo, hi)], t)
            from_scalar = batched_aggregate(scalar, np.array([lo]),
                                            np.array([hi]), np.array([t]),
                                            spec)[0]
            if expected:
                assert got == from_scalar == reducer(expected)
            else:
                assert got is None and from_scalar == empty

    def test_avg_aggregate_generic_path(self, rng):
        """AVG has no numpy prefix kernel: exercises the generic
        object-state annotation path."""
        n = 40
        keys = rng.integers(0, n, size=n)
        payload = [float(v) for v in rng.integers(0, 9, size=n)]
        tree = MergeSortTree(keys, fanout=2, aggregate=AVG, payload=payload)
        for lo, hi, t in [(0, 40, 40), (5, 30, 12), (10, 10, 5)]:
            expected = [payload[i] for i in range(lo, hi) if keys[i] < t]
            got = tree.aggregate([(lo, hi)], t)
            if expected:
                assert got == pytest.approx(sum(expected) / len(expected))
            else:
                assert got is None

    def test_aggregate_without_annotation_raises(self, rng):
        tree = MergeSortTree(rng.integers(0, 5, size=10))
        with pytest.raises(ValueError):
            tree.aggregate([(0, 10)], 3)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MergeSortTree([1, 2, 3], fanout=1)
        with pytest.raises(ValueError):
            MergeSortTree([1, 2, 3], sample_every=0)
        # One build and one query path: neither is an option any more.
        with pytest.raises(TypeError):
            MergeSortTree([1, 2, 3], builder="scalar")
        with pytest.raises(TypeError):
            MergeSortTree([1, 2, 3], cascading=False)

    def test_memory_accounting_close_to_model(self, rng):
        keys = rng.integers(0, 5000, size=5000)
        tree = MergeSortTree(keys, fanout=32, sample_every=32)
        report = measured_vs_model(tree)
        assert 0.4 < report["ratio"] < 2.0

    def test_height_and_n(self, rng):
        tree = MergeSortTree(rng.integers(0, 10, size=100), fanout=2)
        assert tree.n == 100
        assert tree.height == 8  # runs 1..128


@given(
    keys=st.lists(st.integers(-3, 30), min_size=0, max_size=120),
    fanout=st.sampled_from([2, 3, 4, 16]),
    sample_every=st.sampled_from([1, 2, 8, 32]),
    queries=st.lists(
        st.tuples(st.integers(0, 120), st.integers(0, 120),
                  st.integers(-5, 35)),
        min_size=1, max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_count_below_hypothesis(keys, fanout, sample_every, queries):
    arr = np.asarray(keys, dtype=np.int64)
    tree = MergeSortTree(arr, fanout=fanout, sample_every=sample_every)
    n = len(arr)
    for a, b, t in queries:
        lo, hi = sorted((min(a, n), min(b, n)))
        assert tree.count_below(lo, hi, t) == int(np.sum(arr[lo:hi] < t))


@given(
    n=st.integers(1, 100),
    fanout=st.sampled_from([2, 5, 32]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_select_hypothesis(n, fanout, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    tree = MergeSortTree(perm, fanout=fanout, sample_every=4)
    a, b = sorted(rng.integers(0, n + 1, size=2))
    if a == b:
        return
    k = int(rng.integers(0, b - a))
    slab, key = tree.select(k, [(int(a), int(b))])
    qualifying = [(i, v) for i, v in enumerate(perm) if a <= v < b]
    assert (slab, key) == qualifying[k]


def test_inverted_key_range_rejected(rng):
    tree = MergeSortTree(rng.integers(0, 10, size=20))
    with pytest.raises(ValueError):
        tree.count([(0, 20)], [(9, 3)])
    with pytest.raises(ValueError):
        tree.select(0, [(9, 3)])
