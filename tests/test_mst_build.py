"""Merge sort tree construction invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import level_keys
from repro.mst.aggregates import MAX, MIN, SUM
from repro.mst.build import (
    DEFAULT_SAMPLE_EVERY,
    _bridge_from_sources,
    _bridged_merges,
    _new_levels,
    _permuted_prefix,
    build_levels_numpy,
    build_levels_scalar,
    choose_index_dtype,
)
from repro.mst.decompose import num_levels

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _decoded_levels(levels):
    """Every level of the tree rebuilt through its bridges, one entry at
    a time: position ``p`` of level ``L`` took the next entry of the
    child whose count rises between ``p`` and ``p + 1``."""
    fanout, n = levels.fanout, levels.n
    out = [np.asarray(levels.keys[0])]
    for level in range(1, levels.height):
        below = out[-1]
        child_len = fanout ** (level - 1)
        keys = np.empty_like(below)
        for p in range(n):
            slab = p - p % (child_len * fanout)

            def counts(pos):
                return [0] + [int(levels.consumed(level, c, pos))
                              for c in range(fanout - 1)] + [pos]
            before, after = counts(p), counts(p + 1)
            child = next(c for c in range(fanout)
                         if after[c + 1] - after[c] > before[c + 1] - before[c])
            taken = before[child + 1] - before[child] - slab // fanout
            keys[p] = below[slab + child * child_len + taken]
        out.append(keys)
    return out


def _assert_levels_valid(levels, keys):
    """The bridges decode to the levels recomputed from the input alone
    (``level_keys``: each run sorted stably), whose runs are sorted and
    whose top is the sorted input; the top-level counts count it."""
    n = len(keys)
    assert np.array_equal(levels.keys[0], keys)
    recomputed = level_keys(levels)
    decoded = _decoded_levels(levels)
    assert len(recomputed) == len(decoded) == levels.height
    for level, (ours, theirs) in enumerate(zip(decoded, recomputed)):
        assert np.array_equal(ours, theirs), level
        run = levels.fanout ** level
        for start in range(0, n, run):
            segment = theirs[start:min(start + run, n)]
            assert np.all(segment[:-1] <= segment[1:]), \
                f"run at {start} of level {level} not sorted"
    top = recomputed[-1]
    assert top.tolist() == sorted(keys.tolist())
    thresholds = np.arange(int(keys.min(initial=0)) - 2,
                           int(keys.max(initial=0)) + 3)
    assert np.array_equal(levels.top.below(thresholds),
                          np.searchsorted(top, thresholds))


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
            assert len(a.keys) == len(b.keys) == 1
            assert np.array_equal(a.keys[0], b.keys[0])
            assert np.array_equal(a.top.table, b.top.table)
            for ours, theirs in ((a.anchors, b.anchors),
                                 (a.bridges, b.bridges)):
                assert ours[0] is None and theirs[0] is None
                for ba, bb in zip(ours[1:], theirs[1:]):
                    if k == 1 and ours is a.anchors:
                        assert ba is None and bb is None
                        continue
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
    recomputed = level_keys(levels)
    for level in range(1, levels.height):
        child_len = fanout ** (level - 1)
        parent_len = child_len * fanout
        anchors, bridge = levels.anchors[level], levels.bridges[level]
        assert bridge.shape == (fanout - 1, levels.n + 1)
        if k == 1:
            # The bridge is the count; there is no anchor.
            assert bridge.dtype == choose_index_dtype(levels.n + 1)
            assert anchors is None
        else:
            assert bridge.dtype == np.uint8
            assert anchors.shape == (fanout - 1, -(-(levels.n + 1) // k))
        taken = [0] * fanout
        for slab_start in range(0, levels.n, parent_len):
            slab_stop = min(slab_start + parent_len, levels.n)
            # Reconstruct the merge to count consumption.
            children = []
            for c in range(fanout):
                lo = slab_start + c * child_len
                hi = min(lo + child_len, slab_stop)
                children.append(list(recomputed[level - 1][lo:hi])
                                if lo < hi else [])
            heads = [0] * fanout
            for out_pos in range(slab_start, slab_stop + 1):
                for c in range(fanout - 1):
                    want = sum(taken[:c + 1])
                    assert levels.consumed(level, c, out_pos) == want, \
                        (level, out_pos, c)
                    stored = bridge[c, out_pos] if k == 1 else \
                        anchors[c, out_pos // k] + bridge[c, out_pos]
                    assert stored == want
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


def test_keys_far_below_zero_keep_their_values():
    keys = np.array([-2 ** 40, 3, -(2 ** 31), 0])
    levels = build_levels_numpy(keys)
    assert levels.keys[0].dtype == np.int64
    assert levels.keys[0].tolist() == keys.tolist()
    # Keys this sparse keep their sorted top level and search it.
    assert levels.top.low is None
    assert levels.top.table.tolist() == sorted(keys.tolist())
    assert levels.top.below(np.array([-(2 ** 40), 1, 2 ** 41])).tolist() \
        == [0, 3, 4]


# ----------------------------------------------------------------------
# bit identity against the per-level lexsort build
# ----------------------------------------------------------------------
def _lexsort_levels(keys, fanout, sample_every, aggregate=None,
                    payload=None):
    """The level loop ``build_levels_numpy`` ran before it sorted
    ``(slab, key)`` codes: one stable ``np.lexsort`` by (slab, key) per
    level over the whole array."""
    levels = _new_levels(keys, fanout, sample_every, aggregate, payload)
    n = levels.n
    order = None
    positions = np.arange(n, dtype=np.int64)
    current = levels.keys[0]
    for level in range(1, num_levels(n, fanout)):
        child_len = fanout ** (level - 1)
        parent_len = child_len * fanout
        slabs = positions // parent_len
        step_order = np.lexsort((current, slabs))
        current = current[step_order]
        order = step_order if order is None else order[step_order]
        anchors, bridge = _bridge_from_sources(
            step_order - slabs * parent_len, child_len, fanout,
            sample_every)
        levels.anchors.append(anchors)
        levels.bridges.append(bridge)
        if aggregate is not None:
            levels.agg_prefix.append(
                _permuted_prefix(aggregate, payload, order, parent_len, n))
    return levels


def _assert_same_bits(ours, theirs):
    assert (ours.fanout, ours.sample_every) == \
        (theirs.fanout, theirs.sample_every)
    assert ours.top.low == theirs.top.low
    assert ours.top.table.dtype == theirs.top.table.dtype
    assert ours.top.table.tobytes() == theirs.top.table.tobytes()
    for field in ("keys", "anchors", "bridges", "agg_prefix"):
        mine, other = getattr(ours, field), getattr(theirs, field)
        assert len(mine) == len(other), field
        for level, (a, b) in enumerate(zip(mine, other)):
            if a is None or b is None:
                assert a is None and b is None, (field, level)
                continue
            assert a.dtype == b.dtype, (field, level)
            assert a.tobytes() == b.tobytes(), (field, level)


_DTYPES = [np.int8, np.int32, np.int64, np.uint8, np.uint32, np.uint64]


@st.composite
def key_arrays(draw):
    """n in [0, 300] keys of one integer dtype: a narrow domain with
    duplicates, the dtype's whole range, or (64-bit dtypes) values near
    +-2**62, whose (slab, key) codes overflow int64."""
    n = draw(st.integers(0, 300))
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    info = np.iinfo(dtype)
    domain = draw(st.sampled_from(
        ["narrow", "full"] + (["extreme"] if dtype.itemsize == 8 else [])))
    if domain == "narrow":
        low = max(int(info.min), -3)
        keys = rng.integers(low, low + max(n // 3, 1) + 3, size=n)
    elif domain == "full":
        # uint64 above 2**63 is outside what a tree key can hold.
        keys = rng.integers(int(info.min), min(int(info.max), 2 ** 63 - 1),
                            size=n, endpoint=True)
    else:
        centres = np.array([2 ** 62, 0] if info.min == 0
                           else [-(2 ** 62), 0, 2 ** 62], dtype=np.int64)
        keys = (rng.choice(centres, size=n)
                + rng.integers(0, 5, size=n))
    return keys.astype(dtype)


@generated
@given(keys=key_arrays(), fanout=st.sampled_from([2, 3, 4, 8]),
       sample_every=st.sampled_from([1, 4, 256]))
def test_build_matches_lexsort_and_scalar_levels(keys, fanout,
                                                 sample_every):
    ours = build_levels_numpy(keys, fanout=fanout,
                              sample_every=sample_every)
    _assert_same_bits(ours, _lexsort_levels(keys, fanout, sample_every))
    _assert_same_bits(ours, build_levels_scalar(
        keys, fanout=fanout, sample_every=sample_every))


@generated
@given(keys=key_arrays(), fanout=st.sampled_from([2, 3, 4, 8]),
       spec=st.sampled_from([SUM, MIN, MAX]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prefix_annotations_match_lexsort_and_scalar(keys, fanout, spec,
                                                     seed):
    rng = np.random.default_rng(seed)
    n = len(keys)
    # Mixed magnitudes, signed zeros: float sums show any reordering.
    payload = rng.normal(size=n) * 10.0 ** rng.integers(-3, 12, size=n)
    payload[rng.random(n) < 0.1] = -0.0
    ours = build_levels_numpy(keys, fanout=fanout, aggregate=spec,
                              payload=payload)
    _assert_same_bits(ours, _lexsort_levels(keys, fanout,
                                            DEFAULT_SAMPLE_EVERY, spec,
                                            payload))
    _assert_same_bits(ours, build_levels_scalar(
        keys, fanout=fanout, aggregate=spec, payload=payload))


@pytest.mark.parametrize("fanout", [2, 3])
def test_codes_overflow_path_matches_lexsort(fanout, rng):
    """Keys spanning more than 2**63 sort on their dense ranks."""
    keys = rng.choice(np.array([-(2 ** 62), 0, 2 ** 62]), size=97) \
        + rng.integers(0, 3, size=97)
    _assert_same_bits(build_levels_numpy(keys, fanout=fanout),
                      _lexsort_levels(keys, fanout, DEFAULT_SAMPLE_EVERY))


@pytest.mark.parametrize("fanout", [2, 3, 4])
def test_height_caps_the_levels(fanout, rng):
    """The merges of a capped height (the DENSE_RANK index's inner
    trees) are the full tree's lower levels and bridges."""
    keys = rng.integers(0, 20, size=70)
    full = build_levels_numpy(keys, fanout=fanout, sample_every=256)
    for height in range(1, full.height + 1):
        capped = list(_bridged_merges(keys, fanout, height, 256))
        assert [level for level, *_ in capped] == list(range(1, height))
        for level, _, anchors, offsets in capped:
            assert np.array_equal(anchors, full.anchors[level])
            assert np.array_equal(offsets, full.bridges[level])
