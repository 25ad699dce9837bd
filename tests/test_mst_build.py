"""Merge sort tree construction invariants."""

import numpy as np
import pytest

from repro.mst.aggregates import SUM
from repro.mst.build import (
    build_levels_numpy,
    build_levels_scalar,
    choose_index_dtype,
)


def _assert_levels_valid(levels, keys):
    n = len(keys)
    assert np.array_equal(levels.keys[0], keys)
    for level in range(levels.height):
        arr = levels.keys[level]
        assert len(arr) == n
        run = levels.fanout ** level
        for start in range(0, n, run):
            stop = min(start + run, n)
            segment = arr[start:stop]
            assert np.all(segment[:-1] <= segment[1:]), \
                f"run [{start},{stop}) at level {level} not sorted"
        # each level is a permutation of the input
        assert sorted(arr.tolist()) == sorted(keys.tolist())
    # top level fully sorted
    top = levels.keys[-1]
    assert np.all(top[:-1] <= top[1:])


@pytest.mark.parametrize("builder", [build_levels_numpy, build_levels_scalar])
@pytest.mark.parametrize("fanout", [2, 3, 5, 32])
def test_levels_sorted_runs(builder, fanout, rng):
    keys = rng.integers(-5, 40, size=101)
    levels = builder(keys, fanout=fanout, sample_every=4)
    _assert_levels_valid(levels, keys)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65, 100])
def test_edge_sizes(n, rng):
    keys = rng.integers(0, 10, size=n)
    levels = build_levels_numpy(keys, fanout=2)
    assert levels.n == n
    if n:
        _assert_levels_valid(levels, keys)


def test_builders_produce_identical_levels_and_bridges(rng):
    keys = rng.integers(0, 30, size=77)
    for fanout in (2, 3, 4):
        for k in (1, 4, 16, 256):
            a = build_levels_numpy(keys, fanout=fanout, sample_every=k)
            b = build_levels_scalar(keys, fanout=fanout, sample_every=k)
            for la, lb in zip(a.keys, b.keys):
                assert np.array_equal(la, lb)
            for ours, theirs in ((a.anchors, b.anchors),
                                 (a.bridges, b.bridges)):
                assert ours[0] is None and theirs[0] is None
                for ba, bb in zip(ours[1:], theirs[1:]):
                    assert ba.dtype == bb.dtype
                    assert np.array_equal(ba, bb)


def test_bridges_are_consumed_counts(rng):
    """At every position p of a level, bridge column c must count the
    entries before p that the merge took from children 0..c of their
    slab — global counts, every earlier slab included."""
    keys = rng.integers(0, 50, size=60)
    for fanout, k in [(2, 4), (3, 1), (4, 256)]:
        _check_consumed_counts(
            build_levels_numpy(keys, fanout=fanout, sample_every=k))


def _check_consumed_counts(levels):
    fanout, k = levels.fanout, levels.sample_every
    for level in range(1, levels.height):
        child_len = fanout ** (level - 1)
        parent_len = child_len * fanout
        anchors, bridge = levels.anchors[level], levels.bridges[level]
        assert bridge.dtype == np.uint8
        assert bridge.shape == (fanout - 1, levels.n + 1)
        assert anchors.shape == (fanout - 1, -(-(levels.n + 1) // k))
        taken = [0] * fanout
        for slab_start in range(0, levels.n, parent_len):
            slab_stop = min(slab_start + parent_len, levels.n)
            # Reconstruct the merge to count consumption.
            children = []
            for c in range(fanout):
                lo = slab_start + c * child_len
                hi = min(lo + child_len, slab_stop)
                children.append(list(levels.keys[level - 1][lo:hi])
                                if lo < hi else [])
            heads = [0] * fanout
            for out_pos in range(slab_start, slab_stop + 1):
                for c in range(fanout - 1):
                    want = sum(taken[:c + 1])
                    assert levels.consumed(level, c, out_pos) == want, \
                        (level, out_pos, c)
                    assert anchors[c, out_pos // k] + bridge[c, out_pos] \
                        == want
                if out_pos == slab_stop:
                    break
                best = min(
                    (c for c in range(fanout)
                     if heads[c] < len(children[c])),
                    key=lambda c: (children[c][heads[c]], c))
                heads[best] += 1
                taken[best] += 1


def test_sample_every_must_be_power_of_two_up_to_256(rng):
    keys = rng.integers(0, 9, size=20)
    for bad in (0, 3, 12, 512):
        with pytest.raises(ValueError):
            build_levels_numpy(keys, sample_every=bad)
        with pytest.raises(ValueError):
            build_levels_scalar(keys, sample_every=bad)


def test_non_integer_keys_rejected():
    with pytest.raises(ValueError):
        build_levels_numpy(np.array([1.5, 2.5]))
    with pytest.raises(ValueError):
        build_levels_numpy(np.array([[1, 2], [3, 4]]))


def test_aggregate_requires_payload(rng):
    with pytest.raises(ValueError):
        build_levels_numpy(rng.integers(0, 5, 10), aggregate=SUM)


def test_aggregate_prefix_annotation(rng):
    keys = rng.integers(0, 20, size=33)
    payload = rng.normal(size=33)
    levels = build_levels_numpy(keys, fanout=2, aggregate=SUM,
                                payload=payload)
    # level 0 prefixes are the payload itself (runs of length 1)
    assert np.allclose(levels.agg_prefix[0], payload)
    # every level's run-end prefix equals the run's payload sum
    # (aggregate values travel with their keys through the merge)
    total = payload.sum()
    top_prefix = levels.agg_prefix[-1]
    assert np.isclose(top_prefix[-1], total)


def test_choose_index_dtype():
    assert choose_index_dtype(100) == np.dtype(np.int32)
    assert choose_index_dtype(2 ** 31) == np.dtype(np.int64)


def test_index_dtype_applied(rng):
    small = build_levels_numpy(rng.integers(0, 50, size=100))
    assert small.keys[0].dtype == np.int32
