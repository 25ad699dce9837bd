"""Batched (numpy) queries against scalar brute force over level 0."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering_runs
from conftest import lockstep_lower_bound as _lower_bound_in_runs
from repro.mst import SUM, MergeSortTree, make_udaf
from repro.mst.vectorized import (
    batched_aggregate,
    batched_count,
    batched_select,
)


class TestBatchedLowerBound:
    """The lock-step binary search inside runs that the count oracles
    (``conftest.lockstep_count``) run, against ``searchsorted``."""

    def test_matches_searchsorted_within_runs(self, rng):
        arr = np.sort(rng.integers(0, 100, size=64))
        m = 200
        start = rng.integers(0, 64, size=m)
        stop = np.minimum(start + rng.integers(0, 64, size=m), 64)
        target = rng.integers(-5, 105, size=m)
        got = _lower_bound_in_runs(arr, start, stop, target)
        for i in range(m):
            want = start[i] + np.searchsorted(arr[start[i]:stop[i]],
                                              target[i], side="left")
            assert got[i] == want

    def test_empty_queries(self):
        arr = np.arange(10)
        out = _lower_bound_in_runs(arr, np.array([3]), np.array([3]),
                                   np.array([5]))
        assert out[0] == 3

    def test_no_queries(self):
        arr = np.arange(10)
        empty = np.array([], dtype=np.int64)
        assert len(_lower_bound_in_runs(arr, empty, empty, empty)) == 0


class TestBatchedCount:
    @pytest.mark.parametrize("fanout", [2, 3, 8])
    def test_agrees_with_scalar(self, fanout, rng):
        n = 200
        keys = rng.integers(-1, n, size=n)
        tree = MergeSortTree(keys, fanout=fanout)
        m = 150
        lo = rng.integers(0, n + 1, size=m)
        hi = np.minimum(lo + rng.integers(0, n, size=m), n)
        thr = rng.integers(-3, n + 3, size=m)
        got = batched_count(tree.levels, lo, hi, thr)
        for i in range(m):
            assert got[i] == int(np.sum(keys[lo[i]:hi[i]] < thr[i]))

    def test_with_key_lower_bound(self, rng):
        n = 120
        keys = rng.integers(0, 40, size=n)
        tree = MergeSortTree(keys, fanout=2)
        m = 80
        lo = rng.integers(0, n, size=m)
        hi = np.minimum(lo + rng.integers(0, n, size=m), n)
        klo = rng.integers(0, 20, size=m)
        khi = klo + rng.integers(0, 25, size=m)
        got = batched_count(tree.levels, lo, hi, khi, key_lo=klo)
        for i in range(m):
            window = keys[lo[i]:hi[i]]
            assert got[i] == int(np.sum((window >= klo[i])
                                        & (window < khi[i])))


class TestBatchedSelect:
    @pytest.mark.parametrize("fanout", [2, 4])
    def test_agrees_with_scalar(self, fanout, rng):
        n = 150
        perm = rng.permutation(n)
        tree = MergeSortTree(perm, fanout=fanout)
        m = 120
        a = rng.integers(0, n, size=m)
        b = np.minimum(a + 1 + rng.integers(0, 60, size=m), n)
        k = np.array([rng.integers(0, bb - aa) for aa, bb in zip(a, b)])
        slabs, keys = batched_select(tree.levels, k, a, b)
        for i in range(m):
            slab = np.flatnonzero((perm >= a[i]) & (perm < b[i]))[k[i]]
            assert (int(slabs[i]), int(keys[i])) == (slab, perm[slab])

    def test_single_row_tree(self):
        tree = MergeSortTree(np.array([0]))
        slabs, keys = batched_select(tree.levels, np.array([0]),
                                     np.array([0]), np.array([1]))
        assert slabs[0] == 0 and keys[0] == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fanout=st.integers(2, 4),
           pieces=st.integers(1, 3), n=st.integers(1, 90))
    def test_pieces_agree_with_scalar(self, data, fanout, pieces, n):
        """Select over a set of <= 3 disjoint key ranges per query (an
        EXCLUDE frame) == brute force, empty and inverted pieces
        included."""
        seed = data.draw(st.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        tree = MergeSortTree(perm, fanout=fanout)
        m = 40
        # 2 * pieces sorted cut points per query -> disjoint ranges;
        # swapping a pair's ends makes that piece inverted (= empty).
        cuts = np.sort(rng.integers(0, n + 1, size=(2 * pieces, m)), axis=0)
        key_lo, key_hi = cuts[0::2].copy(), cuts[1::2].copy()
        invert = rng.random((pieces, m)) < 0.2
        key_lo[invert], key_hi[invert] = key_hi[invert], key_lo[invert]
        sizes = np.maximum(key_hi - key_lo, 0).sum(axis=0)
        queries = np.flatnonzero(sizes > 0)
        key_lo, key_hi = key_lo[:, queries], key_hi[:, queries]
        k = rng.integers(0, sizes[queries])
        slabs, keys = batched_select(tree.levels, k, key_lo, key_hi)
        for i in range(len(queries)):
            inside = sum((perm >= a) & (perm < b)
                         for a, b in zip(key_lo[:, i], key_hi[:, i]))
            slab = np.flatnonzero(inside)[k[i]]
            assert (int(slabs[i]), int(keys[i])) == (slab, perm[slab])


class TestBatchedAggregate:
    @pytest.mark.parametrize("kind,reducer", [
        ("sum", sum), ("min", min), ("max", max),
    ])
    def test_agrees_with_oracle(self, kind, reducer, rng):
        n = 130
        keys = rng.integers(-1, n, size=n)
        payload = rng.integers(0, 50, size=n).astype(np.float64)
        tree = MergeSortTree(keys, fanout=2, aggregate=SUM, payload=payload)
        m = 100
        lo = rng.integers(0, n, size=m)
        hi = np.minimum(lo + rng.integers(0, n, size=m), n)
        thr = rng.integers(-1, n + 1, size=m)
        if kind in ("min", "max"):
            # min/max need their own prefix kernels
            from repro.mst import MAX, MIN
            spec = MIN if kind == "min" else MAX
            tree = MergeSortTree(keys, fanout=2, aggregate=spec,
                                 payload=payload)
        got = batched_aggregate(tree.levels, lo, hi, thr, kind)
        for i in range(m):
            expected = [payload[j] for j in range(lo[i], hi[i])
                        if keys[j] < thr[i]]
            if expected:
                assert got[i] == pytest.approx(reducer(expected))
            else:
                identity = {"sum": 0.0, "min": np.inf,
                            "max": -np.inf}[kind]
                assert got[i] == identity

    def test_count_kind(self, rng):
        n = 60
        keys = rng.integers(0, 20, size=n)
        from repro.mst import COUNT
        payload = np.ones(n)
        tree = MergeSortTree(keys, fanout=2, aggregate=COUNT,
                             payload=payload)
        got = batched_aggregate(tree.levels, np.array([0]), np.array([n]),
                                np.array([10]), "count")
        assert got[0] == int(np.sum(keys < 10))

    def test_unknown_kind_rejected(self, rng):
        keys = rng.integers(0, 5, size=10)
        tree = MergeSortTree(keys, aggregate=SUM,
                             payload=np.ones(10))
        with pytest.raises(ValueError):
            batched_aggregate(tree.levels, np.array([0]), np.array([10]),
                              np.array([3]), "median")

    def test_missing_annotation_rejected(self, rng):
        tree = MergeSortTree(rng.integers(0, 5, size=10))
        with pytest.raises(ValueError):
            batched_aggregate(tree.levels, np.array([0]), np.array([10]),
                              np.array([3]), "sum")


@pytest.mark.parametrize("fanout", [2, 3, 4])
def test_object_states_merge_in_covering_run_order(fanout, rng):
    """An object-state aggregate merges its covering runs' prefix
    states in :func:`covering_runs`' order: with tuple concatenation as
    the merge, the state lists every qualifying slab position, run by
    run, each run in its key-sorted (stable) order."""
    n = 90
    keys = rng.integers(0, 30, size=n)
    concat = make_udaf("concat", identity=(), lift=lambda v: (v,),
                       merge=lambda a, b: a + b)
    tree = MergeSortTree(keys, fanout=fanout, aggregate=concat,
                         payload=list(range(n)))
    lo = rng.integers(0, n + 1, size=60)
    hi = np.minimum(lo + rng.integers(0, n + 1, size=60), n)
    key_hi = rng.integers(0, 32, size=60)
    got = batched_aggregate(tree.levels, lo, hi, key_hi, concat)
    want = [()] * 60
    for _, start, stop, mask in covering_runs(fanout, tree.height, lo, hi):
        for i in np.flatnonzero(mask):
            run = np.arange(start[i], stop[i])
            run = run[np.argsort(keys[run], kind="stable")]
            want[i] += tuple(int(p) for p in run if keys[p] < key_hi[i])
    assert list(got) == want


@given(
    seed=st.integers(0, 100_000),
    n=st.integers(1, 200),
    fanout=st.sampled_from([2, 3, 8]),
)
@settings(max_examples=60, deadline=None)
def test_batched_count_hypothesis(seed, n, fanout):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-1, n, size=n)
    tree = MergeSortTree(keys, fanout=fanout)
    m = 20
    lo = rng.integers(0, n + 1, size=m)
    hi = np.minimum(lo + rng.integers(0, n, size=m), n)
    thr = rng.integers(-2, n + 2, size=m)
    got = batched_count(tree.levels, lo, hi, thr)
    want = np.array([int(np.sum(keys[l:h] < t))
                     for l, h, t in zip(lo, hi, thr)])
    assert np.array_equal(got, want)
