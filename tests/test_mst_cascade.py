"""The cascaded batched kernels against the lock-step kernels they
replaced.

``lockstep_count`` and ``_lockstep_*`` below are the batched count /
select / aggregate the package shipped before the kernels read the
cascading bridges: they peel each query's covering runs bottom-up and
binary-search inside every run, all queries in lock step. The peel, the
in-run search and the levels they search (each run of level 0 sorted
stably) are ``covering_runs``, ``lockstep_lower_bound`` and
``level_keys`` in ``conftest.py``. They read no bridge and no top-level
count, so they are an independent reference for the cascaded descent. Results must be equal array for
array — float bits included, since the aggregate adds its runs'
contributions in the peel's order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import covering_runs, level_keys, lockstep_count
from conftest import lockstep_lower_bound as _lockstep_lower_bound
from repro.mst import MAX, MIN, SUM, MergeSortTree
from repro.mst.vectorized import (
    batched_aggregate,
    batched_count,
    batched_select,
)

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

FANOUTS = st.sampled_from([2, 3, 4, 8])
SAMPLINGS = st.sampled_from([1, 4, 32, 256])


# ----------------------------------------------------------------------
# the reference: lock-step binary search inside every covering run
# ----------------------------------------------------------------------
_IDENTITY = {"sum": 0.0, "min": np.inf, "max": -np.inf}


def _lockstep_aggregate(levels, lo, hi, key_hi, kind):
    total = np.full(len(lo), _IDENTITY[kind], dtype=np.float64)
    sorted_levels = level_keys(levels)
    for level, run_lo, run_hi, mask in covering_runs(
            levels.fanout, levels.height, lo, hi):
        prefix = np.asarray(levels.agg_prefix[level])
        idx = np.flatnonzero(mask)
        start = run_lo[idx]
        bound = _lockstep_lower_bound(sorted_levels[level], start,
                                      run_hi[idx], key_hi[idx])
        has = bound > start
        contrib = prefix[np.where(has, bound - 1, 0)]
        if kind == "sum":
            total[idx] += np.where(has, contrib, 0)
        elif kind == "min":
            total[idx] = np.minimum(total[idx], np.where(has, contrib, np.inf))
        else:
            total[idx] = np.maximum(total[idx],
                                    np.where(has, contrib, -np.inf))
    return total


def _lockstep_select(levels, k, key_lo, key_hi):
    n, fanout, m = levels.n, levels.fanout, len(k)
    remaining = np.asarray(k, dtype=np.int64).copy()
    key_lo = np.atleast_2d(key_lo)
    key_hi = np.maximum(np.atleast_2d(key_hi), key_lo)
    slab_start = np.zeros(m, dtype=np.int64)
    sorted_levels = level_keys(levels)
    for level in range(levels.height - 1, 0, -1):
        keys = sorted_levels[level - 1]
        child_len = fanout ** (level - 1)
        decided = np.zeros(m, dtype=np.bool_)
        for c in range(fanout - 1):
            child_start = slab_start + c * child_len
            child_stop = np.minimum(child_start + child_len, n)
            open_child = ~decided & (child_start < child_stop)
            start = np.where(open_child, child_start, 0)
            stop = np.where(open_child, child_stop, 0)
            count_c = np.zeros(m, dtype=np.int64)
            for piece_lo, piece_hi in zip(key_lo, key_hi):
                count_c += _lockstep_lower_bound(keys, start, stop, piece_hi)
                count_c -= _lockstep_lower_bound(keys, start, stop, piece_lo)
            descend = open_child & (remaining < count_c)
            skip = open_child & ~descend
            slab_start = np.where(descend, child_start, slab_start)
            remaining = np.where(skip, remaining - count_c, remaining)
            decided |= descend
        last_start = slab_start + (fanout - 1) * child_len
        slab_start = np.where(decided, slab_start, last_start)
    return slab_start, levels.keys[0][slab_start].astype(np.int64)


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@st.composite
def trees(draw, **extra):
    """A tree over n in [0, 300] keys with duplicates (n need not be a
    power of the fanout), and the keys."""
    n = draw(st.integers(0, 300))
    fanout = draw(FANOUTS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = rng.integers(-3, max(n // 2, 1) + 3, size=n)
    payload = None
    if extra:
        # Mixed magnitudes, signed zeros: float sums show any reordering.
        payload = rng.normal(size=n) * 10.0 ** rng.integers(-3, 12, size=n)
        payload[rng.random(n) < 0.1] = -0.0
    tree = MergeSortTree(keys, fanout=fanout, sample_every=draw(SAMPLINGS),
                         payload=payload, **extra)
    return tree, keys, rng


def _ranges(rng, n, m):
    """Slab ranges [lo, hi) in [0, n], a few of them empty or inverted."""
    lo = rng.integers(0, n + 1, size=m)
    hi = np.minimum(lo + rng.integers(0, n + 1, size=m), n)
    swap = rng.random(m) < 0.1
    lo[swap], hi[swap] = hi[swap], lo[swap]
    return lo, hi


def _thresholds(rng, keys, m):
    """Thresholds inside and well outside the key domain."""
    top = int(keys.max(initial=0))
    return rng.integers(-10, top + 10, size=m)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@generated
@given(case=trees(), with_key_lo=st.booleans())
def test_count_matches_lockstep(case, with_key_lo):
    tree, keys, rng = case
    m = 40
    lo, hi = _ranges(rng, tree.n, m)
    key_hi = _thresholds(rng, keys, m)
    key_lo = key_hi - rng.integers(-2, 12, size=m) if with_key_lo else None
    got = batched_count(tree.levels, lo, hi, key_hi, key_lo=key_lo)
    _same_bits(got, lockstep_count(tree.levels, lo, hi, key_hi, key_lo))


@generated
@given(case=trees(), zero_lo=st.booleans())
def test_count_from_slab_start_matches_lockstep(case, zero_lo):
    """Ranges that all start at slab 0 skip their lower descents."""
    tree, keys, rng = case
    m = 30
    lo = np.zeros(m, dtype=np.int64) if zero_lo else \
        rng.integers(0, tree.n + 1, size=m)
    hi = rng.integers(0, tree.n + 1, size=m)
    key_hi = _thresholds(rng, keys, m)
    key_lo = key_hi - 5
    got = batched_count(tree.levels, lo, hi, key_hi, key_lo=key_lo)
    _same_bits(got, lockstep_count(tree.levels, lo, np.maximum(hi, lo),
                                   key_hi, key_lo))


@generated
@given(data=st.data(), spec=st.sampled_from([SUM, MIN, MAX]))
def test_aggregate_matches_lockstep_bit_for_bit(data, spec):
    tree, keys, rng = data.draw(trees(aggregate=spec))
    m = 40
    lo, hi = _ranges(rng, tree.n, m)
    key_hi = _thresholds(rng, keys, m)
    got = batched_aggregate(tree.levels, lo, hi, key_hi, spec.name)
    _same_bits(got, _lockstep_aggregate(tree.levels, lo, hi, key_hi,
                                        spec.name))


@generated
@given(case=trees(), pieces=st.integers(1, 3))
def test_select_matches_lockstep(case, pieces):
    """Select over 1-3 disjoint key ranges per query, empty and inverted
    pieces included."""
    tree, keys, rng = case
    m = 40
    top = int(keys.max(initial=0))
    cuts = np.sort(rng.integers(-5, top + 6, size=(2 * pieces, m)), axis=0)
    key_lo, key_hi = cuts[0::2].copy(), cuts[1::2].copy()
    invert = rng.random((pieces, m)) < 0.2
    key_lo[invert], key_hi[invert] = key_hi[invert], key_lo[invert]
    qualifying = sum(((keys[:, None] >= a) & (keys[:, None] < b)).sum(axis=0)
                     for a, b in zip(key_lo, key_hi))
    rows = np.flatnonzero(qualifying > 0)
    k = rng.integers(0, qualifying[rows]) if len(rows) else rows
    key_lo, key_hi = key_lo[:, rows], key_hi[:, rows]
    got = batched_select(tree.levels, k, key_lo, key_hi)
    want = _lockstep_select(tree.levels, k, key_lo, key_hi)
    for ours, theirs in zip(got, want):
        _same_bits(ours, theirs)


def test_blocks_of_queries_agree(rng, monkeypatch):
    """More queries than one block: the blocked descent equals one
    descent over everything."""
    import repro.mst.vectorized as vectorized
    keys = rng.integers(0, 500, size=1000)
    tree = MergeSortTree(keys, aggregate=SUM, payload=rng.normal(size=1000))
    lo = rng.integers(0, 1000, size=700)
    hi = np.minimum(lo + rng.integers(0, 300, size=700), 1000)
    perm = MergeSortTree(rng.permutation(1000))
    k = np.maximum(hi - lo - 1, 0) // 2
    live = hi > lo
    whole = (batched_count(tree.levels, lo, hi, lo),
             batched_aggregate(tree.levels, lo, hi, lo, "sum"),
             batched_select(perm.levels, k[live], lo[live], hi[live]))
    monkeypatch.setattr(vectorized, "BLOCK_ROWS", 64)
    blocked = (batched_count(tree.levels, lo, hi, lo),
               batched_aggregate(tree.levels, lo, hi, lo, "sum"),
               batched_select(perm.levels, k[live], lo[live], hi[live]))
    _same_bits(blocked[0], whole[0])
    _same_bits(blocked[1], whole[1])
    for ours, theirs in zip(blocked[2], whole[2]):
        _same_bits(ours, theirs)


# ----------------------------------------------------------------------
# the bridges: invariants, worker shipping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fanout,k", [(2, 256), (2, 1), (3, 4), (8, 32)])
def test_check_invariants_rejects_one_corrupted_bridge_entry(fanout, k):
    rng = np.random.default_rng(fanout * 1000 + k)
    n = 200
    tree = MergeSortTree(rng.integers(0, 40, size=n), fanout=fanout,
                         sample_every=k)
    tree.check_invariants()
    for _ in range(25):
        level = int(rng.integers(1, tree.height))
        # At k = 1 the bridge is the count and there is no anchor.
        arrays = tree.levels.anchors if k > 1 and rng.random() >= 0.8 \
            else tree.levels.bridges
        array = arrays[level]
        column = int(rng.integers(0, fanout - 1))
        at = int(rng.integers(0, array.shape[1]))
        original = array[column, at]
        array[column, at] = original ^ 1
        try:
            with pytest.raises(ValueError, match="bridge"):
                tree.check_invariants()
        finally:
            array[column, at] = original
    tree.check_invariants()
