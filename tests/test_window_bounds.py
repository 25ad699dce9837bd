"""Frame bound resolution against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError
from repro.window.bounds import (
    PeerGroups,
    exclusion_ranges,
    frame_sizes,
    resolve_bounds,
    row_ranges,
)
from repro.window.frame import (
    FrameExclusion,
    FrameSpec,
    current_row,
    following,
    preceding,
    unbounded_following,
    unbounded_preceding,
)


class TestRowsMode:
    def test_sliding(self):
        frame = FrameSpec.rows(preceding(2), current_row())
        start, end = resolve_bounds(frame, 5)
        assert start.tolist() == [0, 0, 0, 1, 2]
        assert end.tolist() == [1, 2, 3, 4, 5]

    def test_unbounded(self):
        frame = FrameSpec.rows(unbounded_preceding(), unbounded_following())
        start, end = resolve_bounds(frame, 4)
        assert start.tolist() == [0, 0, 0, 0]
        assert end.tolist() == [4, 4, 4, 4]

    def test_forward_only(self):
        frame = FrameSpec.rows(following(1), following(2))
        start, end = resolve_bounds(frame, 5)
        assert start.tolist() == [1, 2, 3, 4, 5]
        assert end.tolist() == [3, 4, 5, 5, 5]

    def test_empty_when_crossed(self):
        frame = FrameSpec.rows(following(3), preceding(3))
        start, end = resolve_bounds(frame, 4)
        assert (start == end).all()

    def test_per_row_offsets(self):
        offsets = np.array([0, 1, 2, 3])
        frame = FrameSpec.rows(preceding(offsets), current_row())
        start, end = resolve_bounds(frame, 4)
        assert start.tolist() == [0, 0, 0, 0]
        assert end.tolist() == [1, 2, 3, 4]

    def test_empty_partition(self):
        frame = FrameSpec.rows(preceding(1), current_row())
        start, end = resolve_bounds(frame, 0)
        assert len(start) == 0 and len(end) == 0


class TestRangeMode:
    def test_value_window(self):
        keys = np.array([1.0, 2.0, 4.0, 7.0, 8.0])
        frame = FrameSpec.range(preceding(2), current_row())
        start, end = resolve_bounds(frame, 5, range_keys=keys)
        # frames: values in [v-2, v]
        assert start.tolist() == [0, 0, 1, 3, 3]
        assert end.tolist() == [1, 2, 3, 4, 5]

    def test_peers_share_current_row_bounds(self):
        keys = np.array([1.0, 2.0, 2.0, 3.0])
        frame = FrameSpec.range(unbounded_preceding(), current_row())
        start, end = resolve_bounds(frame, 4, range_keys=keys)
        assert end.tolist() == [1, 3, 3, 4]

    def test_following(self):
        keys = np.array([0.0, 1.0, 5.0])
        frame = FrameSpec.range(current_row(), following(1))
        start, end = resolve_bounds(frame, 3, range_keys=keys)
        assert start.tolist() == [0, 1, 2]
        assert end.tolist() == [2, 2, 3]

    def test_nulls_at_infinity_are_their_own_peers(self):
        keys = np.array([1.0, 2.0, np.inf, np.inf])  # nulls last
        frame = FrameSpec.range(preceding(1), current_row())
        start, end = resolve_bounds(frame, 4, range_keys=keys)
        assert start.tolist()[2:] == [2, 2]
        assert end.tolist()[2:] == [4, 4]

    def test_missing_keys_rejected(self):
        frame = FrameSpec.range(preceding(1), current_row())
        with pytest.raises(FrameError):
            resolve_bounds(frame, 3)

    def test_unbounded_range_needs_no_keys(self):
        frame = FrameSpec.range(unbounded_preceding(),
                                unbounded_following())
        start, end = resolve_bounds(frame, 3)
        assert end.tolist() == [3, 3, 3]


class TestGroupsMode:
    def test_groups_window(self):
        peers = PeerGroups(np.array([0, 0, 1, 1, 2]))
        frame = FrameSpec.groups(preceding(1), current_row())
        start, end = resolve_bounds(frame, 5, peers=peers)
        assert start.tolist() == [0, 0, 0, 0, 2]
        assert end.tolist() == [2, 2, 4, 4, 5]

    def test_groups_out_of_range(self):
        peers = PeerGroups(np.array([0, 1]))
        frame = FrameSpec.groups(following(5), following(9))
        start, end = resolve_bounds(frame, 2, peers=peers)
        assert (start == end).all()

    def test_groups_requires_peers(self):
        frame = FrameSpec.groups(preceding(1), current_row())
        with pytest.raises(FrameError):
            resolve_bounds(frame, 3)


class TestPeerGroups:
    def test_geometry(self):
        peers = PeerGroups(np.array([0, 0, 1, 2, 2, 2]))
        assert peers.num_groups == 3
        assert peers.peer_start().tolist() == [0, 0, 2, 3, 3, 3]
        assert peers.peer_end().tolist() == [2, 2, 3, 6, 6, 6]

    def test_single_group(self):
        peers = PeerGroups.single_group(4)
        assert peers.peer_start().tolist() == [0, 0, 0, 0]
        assert peers.peer_end().tolist() == [4, 4, 4, 4]

    def test_empty(self):
        peers = PeerGroups(np.array([], dtype=np.int64))
        assert peers.num_groups == 0


class TestExclusion:
    def _setup(self):
        start = np.zeros(6, dtype=np.int64)
        end = np.full(6, 6, dtype=np.int64)
        peers = PeerGroups(np.array([0, 0, 1, 1, 1, 2]))
        return start, end, peers

    def _rows(self, pieces, row):
        return row_ranges(pieces, row)

    def test_no_others(self):
        start, end, peers = self._setup()
        pieces = exclusion_ranges(start, end, FrameExclusion.NO_OTHERS,
                                  peers)
        assert self._rows(pieces, 3) == [(0, 6)]

    def test_current_row(self):
        start, end, peers = self._setup()
        pieces = exclusion_ranges(start, end, FrameExclusion.CURRENT_ROW,
                                  peers)
        assert self._rows(pieces, 3) == [(0, 3), (4, 6)]
        assert self._rows(pieces, 0) == [(1, 6)]

    def test_group(self):
        start, end, peers = self._setup()
        pieces = exclusion_ranges(start, end, FrameExclusion.GROUP, peers)
        assert self._rows(pieces, 3) == [(0, 2), (5, 6)]

    def test_ties(self):
        start, end, peers = self._setup()
        pieces = exclusion_ranges(start, end, FrameExclusion.TIES, peers)
        assert self._rows(pieces, 3) == [(0, 2), (3, 4), (5, 6)]

    def test_exclusion_clipped_to_frame(self):
        start = np.full(4, 2, dtype=np.int64)
        end = np.full(4, 3, dtype=np.int64)
        peers = PeerGroups(np.arange(4))
        pieces = exclusion_ranges(start, end, FrameExclusion.CURRENT_ROW,
                                  peers)
        # row 0's frame [2,3) does not contain row 0
        assert self._rows(pieces, 0) == [(2, 3)]
        assert self._rows(pieces, 2) == []

    def test_group_requires_peers(self):
        start, end, _ = self._setup()
        with pytest.raises(FrameError):
            exclusion_ranges(start, end, FrameExclusion.GROUP, None)

    def test_frame_sizes(self):
        start, end, peers = self._setup()
        pieces = exclusion_ranges(start, end, FrameExclusion.GROUP, peers)
        sizes = frame_sizes(pieces)
        assert sizes.tolist() == [4, 4, 3, 3, 3, 5]


@given(
    n=st.integers(1, 40),
    width_before=st.integers(0, 10),
    width_after=st.integers(0, 10),
    seed=st.integers(0, 9999),
)
@settings(max_examples=100, deadline=None)
def test_range_bounds_oracle(n, width_before, width_after, seed):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, 30, size=n)).astype(np.float64)
    frame = FrameSpec.range(preceding(width_before), following(width_after))
    start, end = resolve_bounds(frame, n, range_keys=keys)
    for i in range(n):
        expected = [j for j in range(n)
                    if keys[i] - width_before <= keys[j]
                    <= keys[i] + width_after]
        assert list(range(start[i], end[i])) == expected


# ----------------------------------------------------------------------
# a whole window group against a per-partition brute force
# ----------------------------------------------------------------------
#: Partition sizes: a handful of small partitions, or one large partition
#: beside many one-row partitions.
PARTITION_SIZES = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
    st.integers(0, 12).map(lambda k: [15] + [1] * k),
)

OFFSET_KINDS = st.sampled_from(["preceding", "following"])


def _partition_ids(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def _partition(ids, i):
    """The positions of row ``i``'s partition."""
    return np.flatnonzero(ids == ids[i]).tolist()


def _target(kind, coord, offset):
    return coord - offset if kind == "preceding" else coord + offset


def _offset_bound(kind, offset):
    return (preceding if kind == "preceding" else following)(offset)


@given(sizes=PARTITION_SIZES, start_kind=OFFSET_KINDS,
       end_kind=OFFSET_KINDS, seed=st.integers(0, 9999))
@settings(max_examples=150, deadline=None)
def test_rows_per_row_offsets_stop_at_the_partition(sizes, start_kind,
                                                    end_kind, seed):
    rng = np.random.default_rng(seed)
    ids = _partition_ids(sizes)
    n = len(ids)
    # Offsets up to 20 reach across most neighbouring partitions.
    lo, hi = rng.integers(0, 20, n), rng.integers(0, 20, n)
    frame = FrameSpec.rows(_offset_bound(start_kind, lo),
                           _offset_bound(end_kind, hi))
    start, end = resolve_bounds(frame, n, partition_ids=ids)
    for i in range(n):
        expected = [j for j in _partition(ids, i)
                    if _target(start_kind, i, lo[i]) <= j
                    <= _target(end_kind, i, hi[i])]
        assert list(range(start[i], end[i])) == expected


@given(sizes=PARTITION_SIZES, nulls_first=st.booleans(),
       start=st.one_of(st.none(), st.just("current"),
                       st.tuples(OFFSET_KINDS, st.integers(0, 4))),
       end=st.one_of(st.none(), st.just("current"),
                     st.tuples(OFFSET_KINDS, st.integers(0, 4))),
       seed=st.integers(0, 9999))
@settings(max_examples=150, deadline=None)
def test_range_null_keys_stay_in_their_partition(sizes, nulls_first, start,
                                                 end, seed):
    """NULL keys are ±inf, so a partition's trailing +inf sits right
    before the next partition's keys (and a leading -inf right after
    the previous one's)."""
    rng = np.random.default_rng(seed)
    ids = _partition_ids(sizes)
    keys = []
    for size in sizes:
        nulls = int(rng.integers(0, size + 1))
        values = np.sort(rng.integers(0, 6, size - nulls)).astype(float)
        pad = [-np.inf if nulls_first else np.inf] * nulls
        keys.extend(pad + values.tolist() if nulls_first
                    else values.tolist() + pad)
    keys = np.asarray(keys)
    n = len(ids)

    def bound(spec, is_start):
        if spec is None:
            return unbounded_preceding() if is_start \
                else unbounded_following()
        if spec == "current":
            return current_row()
        return _offset_bound(*spec)

    def admits(spec, i, j, is_start):
        if spec is None:
            return True
        target = keys[i] if spec == "current" \
            else _target(spec[0], keys[i], spec[1])
        return keys[j] >= target if is_start else keys[j] <= target

    frame = FrameSpec.range(bound(start, True), bound(end, False))
    got_start, got_end = resolve_bounds(frame, n, range_keys=keys,
                                        partition_ids=ids)
    for i in range(n):
        expected = [j for j in _partition(ids, i)
                    if admits(start, i, j, True)
                    and admits(end, i, j, False)]
        assert list(range(got_start[i], got_end[i])) == expected


def _group_keys(sizes, rng):
    """Sorted keys per partition and the peer groups that break at
    partition boundaries too."""
    from repro.sortutil import SortColumn, sorted_equal_runs

    ids = _partition_ids(sizes)
    keys = np.concatenate([np.sort(rng.integers(0, 4, size))
                           for size in sizes])
    runs = sorted_equal_runs([SortColumn(ids), SortColumn(keys)],
                             np.arange(len(ids)))
    return ids, keys, PeerGroups(runs)


def _local_groups(ids, keys, i):
    """Row ``i``'s partition as (position, local peer-group index)."""
    members = _partition(ids, i)
    distinct = sorted({int(keys[j]) for j in members})
    return [(j, distinct.index(int(keys[j]))) for j in members]


@given(sizes=PARTITION_SIZES, start_kind=OFFSET_KINDS, end_kind=OFFSET_KINDS,
       lo=st.integers(0, 6), hi=st.integers(0, 6), seed=st.integers(0, 9999))
@settings(max_examples=150, deadline=None)
def test_groups_offsets_past_the_partition_clip_to_it(sizes, start_kind,
                                                      end_kind, lo, hi,
                                                      seed):
    ids, keys, peers = _group_keys(sizes, np.random.default_rng(seed))
    frame = FrameSpec.groups(_offset_bound(start_kind, lo),
                             _offset_bound(end_kind, hi))
    start, end = resolve_bounds(frame, len(ids), peers=peers,
                                partition_ids=ids)
    for i in range(len(ids)):
        local = _local_groups(ids, keys, i)
        own = dict(local)[i]
        expected = [j for j, g in local
                    if _target(start_kind, own, lo) <= g
                    <= _target(end_kind, own, hi)]
        assert list(range(start[i], end[i])) == expected


@given(sizes=PARTITION_SIZES, mode=st.sampled_from(["rows", "groups"]),
       exclusion=st.sampled_from([FrameExclusion.GROUP,
                                  FrameExclusion.TIES]),
       width=st.integers(0, 6), seed=st.integers(0, 9999))
@settings(max_examples=150, deadline=None)
def test_exclusion_at_partition_edges(sizes, mode, exclusion, width, seed):
    """EXCLUDE GROUP / TIES removes only the row's own partition's peers,
    also on a partition's first and last row, where the neighbouring
    partition may hold equal keys."""
    ids, keys, peers = _group_keys(sizes, np.random.default_rng(seed))
    make = FrameSpec.rows if mode == "rows" else FrameSpec.groups
    frame = make(preceding(width), following(width), exclusion)
    start, end = resolve_bounds(frame, len(ids), peers=peers,
                                partition_ids=ids)
    pieces = exclusion_ranges(start, end, exclusion, peers)
    edges = set(np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]).tolist())
    edges |= {j - 1 for j in edges if j} | {len(ids) - 1}
    for i in sorted(edges):
        local = _local_groups(ids, keys, i)
        own = dict(local)[i]
        position = local.index((i, own))
        frame_rows = [j for k, (j, g) in enumerate(local)
                      if (abs(k - position) if mode == "rows"
                          else abs(g - own)) <= width]
        expected = [j for j in frame_rows
                    if keys[j] != keys[i]
                    or (exclusion is FrameExclusion.TIES and j == i)]
        got = [j for a, b in row_ranges(pieces, i) for j in range(a, b)]
        assert got == expected


@given(sizes=PARTITION_SIZES, descending=st.booleans(),
       nulls_last=st.booleans(), before=st.integers(0, 3),
       after=st.integers(0, 3), seed=st.integers(0, 9999))
@settings(max_examples=150, deadline=None)
def test_range_desc_nulls_frames_match_each_partition(sizes, descending,
                                                      nulls_last, before,
                                                      after, seed):
    """The operator's group view under DESC and NULLS FIRST / LAST: every
    frame holds exactly the rows of its own partition whose key lies in
    the RANGE (NULL keys: the partition's NULL rows)."""
    from repro.sortutil import SortColumn, sorted_equal_runs, stable_argsort
    from repro.window import WindowSpec
    from repro.window.frame import OrderItem
    from repro.window.operator import _build_view

    rng = np.random.default_rng(seed)
    g = rng.permutation(_partition_ids(sizes))
    n = len(g)
    values = rng.integers(0, 6, n)
    valid = rng.random(n) > 0.3
    item = OrderItem("o", descending=descending, nulls_last=nulls_last)
    spec = WindowSpec(partition_by=("g",), order_by=(item,),
                      frame=FrameSpec.range(preceding(before),
                                            following(after)))
    keys = [SortColumn(g), SortColumn(values, descending, nulls_last, valid)]
    order = stable_argsort(keys, n)
    ids = sorted_equal_runs([SortColumn(g)], order)
    view = _build_view({"o": (values, valid)}, order, spec, ids,
                       sorted_equal_runs(keys, order))

    def in_frame(i, j):
        if not (valid[i] and valid[j]):
            return not valid[i] and not valid[j]
        low, high = (values[i] - after, values[i] + before) if descending \
            else (values[i] - before, values[i] + after)
        return low <= values[j] <= high

    for position, row in enumerate(order):
        got = sorted(order[view.start[position]:view.end[position]])
        expected = [j for j in range(n) if g[j] == g[row]
                    and in_frame(row, j)]
        assert got == expected
