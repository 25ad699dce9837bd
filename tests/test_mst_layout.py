"""The tree layout against brute force over level 0.

A tree keeps level 0, the top-level key counts and one bridge per level
above it — ``f - 1`` counts per position at ``k = 1``, anchors plus uint8
offsets at ``k > 1`` — and no sorted level in between. Every query kind
must still answer exactly what a scan of level 0 answers, at every
fanout and sampling, for key arrays the count table serves (dense,
negative) and those it leaves to a search (sparse); and the scalar
multiway-merge build must give the same answers bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mst import COUNT, MAX, MIN, SUM, MergeSortTree
from repro.mst.build import build_levels_numpy, build_levels_scalar
from repro.mst.vectorized import (
    batched_aggregate,
    batched_count,
    batched_select,
)

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_INT64 = np.iinfo(np.int64)


def _sizes(fanout):
    """0, 1, 2 and one either side of every power of the fanout."""
    out = [0, 1, 2]
    power = fanout
    while power <= 600:
        out += [power - 1, power + 1]
        power *= fanout
    return out


@st.composite
def layouts(draw):
    """``(fanout, k, keys, rng)``: n from the edge sizes or up to 300,
    keys dense (the count table), negative (a table from a negative
    low) or sparse (the sorted keys, searched)."""
    fanout = draw(st.sampled_from([2, 3, 4, 8]))
    k = draw(st.sampled_from([1, 4, 256]))
    n = draw(st.one_of(st.sampled_from(_sizes(fanout)),
                       st.integers(0, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    domain = draw(st.sampled_from(["dense", "negative", "sparse"]))
    if domain == "dense":
        keys = rng.integers(0, max(n, 1), size=n)
    elif domain == "negative":
        keys = rng.integers(-2 * n - 3, n // 3 + 1, size=n)
    else:
        keys = rng.integers(-(10 ** 12), 10 ** 12, size=n)
    return fanout, k, keys, rng


def _thresholds(rng, keys, m):
    """Keys of the tree, their neighbours, and values far outside."""
    extremes = np.array([_INT64.min, -(2 ** 62), 2 ** 62, _INT64.max])
    pool = np.concatenate([keys, keys - 1, keys + 1, extremes]) \
        if len(keys) else extremes
    return rng.choice(pool, size=m)


def _ranges(rng, n, m):
    """Slab ranges [lo, hi) in [0, n], a few empty or inverted."""
    lo = rng.integers(0, n + 1, size=m)
    hi = rng.integers(0, n + 1, size=m)
    swap = rng.random(m) < 0.7
    lo[swap], hi[swap] = np.minimum(lo, hi)[swap], np.maximum(lo, hi)[swap]
    return lo, hi


def _brute_count(keys, lo, hi, key_hi, key_lo=None):
    out = []
    for a, b, top, i in zip(lo, hi, key_hi, range(len(lo))):
        segment = keys[a:max(a, b)]
        count = int(np.sum(segment < top))
        if key_lo is not None:
            count -= int(np.sum(segment < key_lo[i]))
        out.append(count)
    return np.array(out, dtype=np.int64)


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@generated
@given(layout=layouts(), with_key_lo=st.booleans())
def test_count_matches_brute_force(layout, with_key_lo):
    fanout, k, keys, rng = layout
    n, m = len(keys), 30
    numpy_tree = build_levels_numpy(keys, fanout=fanout, sample_every=k)
    scalar_tree = build_levels_scalar(keys, fanout=fanout, sample_every=k)
    lo, hi = _ranges(rng, n, m)
    key_hi = _thresholds(rng, keys, m)
    key_lo = _thresholds(rng, keys, m) if with_key_lo else None
    want = _brute_count(keys, lo, hi, key_hi, key_lo)
    for levels in (numpy_tree, scalar_tree):
        got = batched_count(levels, lo, hi, key_hi, key_lo=key_lo)
        _same_bits(got, want)


@generated
@given(layout=layouts(), pieces=st.integers(1, 3))
def test_select_matches_brute_force(layout, pieces):
    """Select over 1-3 disjoint key ranges per query, empty and
    inverted pieces included."""
    fanout, k, keys, rng = layout
    n, m = len(keys), 30
    numpy_tree = build_levels_numpy(keys, fanout=fanout, sample_every=k)
    scalar_tree = build_levels_scalar(keys, fanout=fanout, sample_every=k)
    cuts = np.sort(_thresholds(rng, keys, 2 * pieces * m)
                   .reshape(2 * pieces, m), axis=0)
    key_lo, key_hi = cuts[0::2].copy(), cuts[1::2].copy()
    invert = rng.random((pieces, m)) < 0.2
    key_lo[invert], key_hi[invert] = key_hi[invert], key_lo[invert]
    inside = np.zeros((m, n), dtype=np.bool_)
    for a, b in zip(key_lo, key_hi):
        inside |= (keys[None, :] >= a[:, None]) & (keys[None, :] < b[:, None])
    qualifying = inside.sum(axis=1)
    rows = np.flatnonzero(qualifying > 0)
    ks = rng.integers(0, qualifying[rows]) if len(rows) else rows
    want = np.array([np.flatnonzero(inside[row])[kth]
                     for row, kth in zip(rows, ks)], dtype=np.int64)
    for levels in (numpy_tree, scalar_tree):
        slabs, values = batched_select(levels, ks, key_lo[:, rows],
                                       key_hi[:, rows])
        _same_bits(slabs, want)
        _same_bits(values, keys[want].astype(np.int64))


@generated
@given(layout=layouts(), spec=st.sampled_from([SUM, MIN, MAX, COUNT]),
       exact=st.booleans())
def test_aggregate_matches_brute_force_and_scalar_build(layout, spec,
                                                        exact):
    """Against brute force with small-integer payloads, whose float sums
    are exact in any order, bit for bit; against the scalar build with
    mixed-magnitude floats, bit for bit."""
    fanout, k, keys, rng = layout
    n, m = len(keys), 30
    if exact:
        payload = rng.integers(-50, 50, size=n).astype(np.float64)
    else:
        payload = rng.normal(size=n) * 10.0 ** rng.integers(-3, 12, size=n)
    numpy_tree = build_levels_numpy(keys, fanout=fanout, sample_every=k,
                                    aggregate=spec, payload=payload)
    scalar_tree = build_levels_scalar(keys, fanout=fanout, sample_every=k,
                                      aggregate=spec, payload=payload)
    lo, hi = _ranges(rng, n, m)
    key_hi = _thresholds(rng, keys, m)
    got = batched_aggregate(numpy_tree, lo, hi, key_hi, spec.name)
    _same_bits(batched_aggregate(scalar_tree, lo, hi, key_hi, spec.name),
               got)
    if not exact:
        return
    fold = {"sum": (np.add, 0.0), "count": (np.add, 0),
            "min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}
    combine, identity = fold[spec.name]
    want = np.empty(m, dtype=got.dtype)
    for i in range(m):
        a, b = int(lo[i]), int(hi[i])
        chosen = [j for j in range(a, max(a, b)) if keys[j] < key_hi[i]]
        value = np.asarray(identity, dtype=got.dtype)
        for j in chosen:
            value = combine(value, 1 if spec is COUNT else payload[j])
        want[i] = value
    _same_bits(got, want)


@pytest.mark.parametrize("k", [1, 256])
@pytest.mark.parametrize("fanout", [2, 3, 8])
def test_check_invariants_rejects_one_corrupted_count(fanout, k):
    """One count of one bridge off by one, anywhere: at k = 1 the count
    itself, at k = 256 an offset or an anchor."""
    rng = np.random.default_rng(fanout * 10 + k)
    tree = MergeSortTree(rng.integers(0, 300, size=300), fanout=fanout,
                         sample_every=k)
    tree.check_invariants()
    for _ in range(40):
        level = int(rng.integers(1, tree.height))
        arrays = [tree.levels.bridges[level]]
        if k > 1:
            arrays.append(tree.levels.anchors[level])
        array = arrays[int(rng.integers(0, len(arrays)))]
        column = int(rng.integers(0, fanout - 1))
        at = int(rng.integers(0, array.shape[1]))
        original = array[column, at]
        array[column, at] = original + 1 if original == 0 or \
            rng.random() < 0.5 else original - 1
        try:
            with pytest.raises(ValueError, match="bridge"):
                tree.check_invariants()
        finally:
            array[column, at] = original
    tree.check_invariants()


@pytest.mark.parametrize("keys", [
    np.arange(50),                          # a permutation: a table
    np.array([5, -(10 ** 15), 7, 10 ** 15]),  # sparse: searched
])
def test_check_invariants_rejects_corrupted_key_counts(keys):
    tree = MergeSortTree(keys, fanout=2)
    tree.check_invariants()
    tree.levels.top.table[1] += 1
    with pytest.raises(ValueError, match="top-level key counts"):
        tree.check_invariants()
