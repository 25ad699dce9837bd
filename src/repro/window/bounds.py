"""Resolving frame specifications to per-row index ranges.

Given ``n`` rows sorted by (PARTITION BY, ORDER BY) — a whole window
group — :func:`resolve_bounds` turns a
:class:`~repro.window.frame.FrameSpec` into two arrays ``start``/``end``
with the half-open frame ``[start[i], end[i])`` for every row, clipped
to the row's partition — entirely with vectorised searches, including
per-row (non-constant, possibly non-monotonic) offsets.

:func:`exclusion_ranges` then applies the EXCLUDE clause, splitting each
frame into at most three continuous ranges (Section 4.7).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import FrameError
from repro.window.frame import (
    BoundType,
    FrameExclusion,
    FrameMode,
    FrameSpec,
)


class PeerGroups:
    """Peer-group geometry of sorted rows (ids break where the key or
    the partition changes)."""

    def __init__(self, group_ids: np.ndarray) -> None:
        self.group_ids = np.asarray(group_ids, dtype=np.int64)
        n = len(self.group_ids)
        if n == 0:
            self.first_of_group = np.empty(0, dtype=np.int64)
            self.end_of_group = np.empty(0, dtype=np.int64)
        else:
            boundaries = np.flatnonzero(
                np.r_[True, self.group_ids[1:] != self.group_ids[:-1]])
            self.first_of_group = boundaries.astype(np.int64)
            self.end_of_group = np.r_[boundaries[1:], n].astype(np.int64)

    @classmethod
    def single_group(cls, n: int) -> "PeerGroups":
        """All rows are peers (no window ORDER BY)."""
        return cls(np.zeros(n, dtype=np.int64))

    @property
    def num_groups(self) -> int:
        return len(self.first_of_group)

    def peer_start(self) -> np.ndarray:
        return self.first_of_group[self.group_ids]

    def peer_end(self) -> np.ndarray:
        return self.end_of_group[self.group_ids]


def partition_extents(partition_ids: Optional[np.ndarray], n: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, its partition's ``[first, end)`` positions. The ids are
    in sorted order, so every partition is one run of equal ids; None
    is one partition of all ``n`` rows."""
    if partition_ids is None:
        return np.zeros(n, dtype=np.int64), np.full(n, n, dtype=np.int64)
    starts = np.flatnonzero(
        np.r_[True, partition_ids[1:] != partition_ids[:-1]])
    stops = np.append(starts[1:], n)
    sizes = stops - starts
    return np.repeat(starts, sizes), np.repeat(stops, sizes)


def _saturated(offsets: np.ndarray) -> np.ndarray:
    """ROWS / GROUPS offsets as int64, each at most the row count: a
    larger offset reaches past its partition's edge all the same, and
    the clamp keeps ``position ± offset`` from wrapping."""
    return np.minimum(offsets, len(offsets)).astype(np.int64, copy=False)


def _rows_positions(bound_type: BoundType, offsets: Optional[np.ndarray],
                    first: np.ndarray, last: np.ndarray,
                    is_end: bool) -> np.ndarray:
    n = len(first)
    i = np.arange(n, dtype=np.int64)
    shift = 1 if is_end else 0
    if bound_type is BoundType.UNBOUNDED_PRECEDING:
        return first
    if bound_type is BoundType.UNBOUNDED_FOLLOWING:
        return last
    if bound_type is BoundType.CURRENT_ROW:
        return i + shift
    off = _saturated(offsets)
    if bound_type is BoundType.PRECEDING:
        return i - off + shift
    return i + off + shift  # FOLLOWING


def _search(keys: np.ndarray, targets: np.ndarray, side: str,
            partition_ids: Optional[np.ndarray]) -> np.ndarray:
    """Per row, the ``side`` search for its target among the keys of
    its own partition, as a group position.

    The keys ascend inside each partition, not across them, so one
    search runs on ``(partition id, key rank)`` codes: a key's rank is
    the number of distinct keys below it, a target's the number of keys
    below it (``left``) or at most it (``right``), and a key passes a
    target exactly when its rank reaches the target's."""
    if partition_ids is None:
        return np.searchsorted(keys, targets, side=side).astype(np.int64)
    values = np.unique(keys)
    width = len(values) + 1
    base = partition_ids.astype(np.int64) * width
    codes = base + np.searchsorted(values, keys)
    return np.searchsorted(
        codes, base + np.searchsorted(values, targets, side=side)
    ).astype(np.int64)


def _range_positions(bound_type: BoundType, offsets: Optional[np.ndarray],
                     keys: Optional[np.ndarray], peers: Optional[PeerGroups],
                     first: np.ndarray, last: np.ndarray,
                     partition_ids: Optional[np.ndarray],
                     is_end: bool) -> np.ndarray:
    side = "right" if is_end else "left"
    if bound_type is BoundType.UNBOUNDED_PRECEDING:
        return first
    if bound_type is BoundType.UNBOUNDED_FOLLOWING:
        return last
    if bound_type is BoundType.CURRENT_ROW:
        # CURRENT ROW in RANGE mode means the peer group boundary; with
        # no numeric key available (e.g. a string ORDER BY and no offset
        # bounds) the peer groups supply it directly.
        if keys is None:
            if peers is None:
                raise FrameError(
                    "RANGE CURRENT ROW requires a window ORDER BY")
            return peers.peer_end() if is_end else peers.peer_start()
        targets = keys
    elif bound_type is BoundType.PRECEDING:
        targets = keys - offsets
    else:
        targets = keys + offsets
    return _search(keys, targets, side, partition_ids)


def _groups_positions(bound_type: BoundType, offsets: Optional[np.ndarray],
                      peers: PeerGroups, first: np.ndarray,
                      last: np.ndarray, is_end: bool) -> np.ndarray:
    if bound_type is BoundType.UNBOUNDED_PRECEDING:
        return first
    if bound_type is BoundType.UNBOUNDED_FOLLOWING:
        return last
    g = peers.group_ids
    if bound_type is BoundType.CURRENT_ROW:
        target = g
    elif bound_type is BoundType.PRECEDING:
        target = g - _saturated(offsets)
    else:
        target = g + _saturated(offsets)
    # A target before the partition's first peer group or past its last
    # one clips to the partition's edge.
    g_first, g_last = g[first], g[last - 1]
    clipped = np.clip(target, g_first, g_last)
    positions = (peers.end_of_group if is_end
                 else peers.first_of_group)[clipped]
    positions = np.where(target < g_first, first, positions)
    positions = np.where(target > g_last, last, positions)
    return positions.astype(np.int64)


def resolve_bounds(frame: FrameSpec, n: int, *,
                   range_keys: Optional[np.ndarray] = None,
                   peers: Optional[PeerGroups] = None,
                   partition_ids: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row half-open frame bounds over ``n`` sorted rows.

    ``partition_ids`` (None = one partition) gives each row's partition
    in sorted order; every frame is clipped to its row's partition, so
    one call frames a whole window group.
    ``range_keys`` (RANGE mode only): the window ORDER BY key reduced to
    an array *ascending inside each partition* with NULLs mapped to
    ``±inf`` — the caller handles DESC by negation, exactly the
    integer-reduction strategy of Section 5.1. ``peers`` is required
    for GROUPS mode and must break at partition boundaries.
    """
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    first, last = partition_extents(partition_ids, n)

    def offsets_for(bound) -> Optional[np.ndarray]:
        if bound.type in (BoundType.PRECEDING, BoundType.FOLLOWING):
            return bound.offset_array(n)
        return None

    if frame.mode is FrameMode.ROWS:
        start = _rows_positions(frame.start.type, offsets_for(frame.start),
                                first, last, is_end=False)
        end = _rows_positions(frame.end.type, offsets_for(frame.end),
                              first, last, is_end=True)
    elif frame.mode is FrameMode.RANGE:
        has_offsets = (frame.start.type in (BoundType.PRECEDING,
                                            BoundType.FOLLOWING)
                       or frame.end.type in (BoundType.PRECEDING,
                                             BoundType.FOLLOWING))
        if range_keys is None and has_offsets:
            raise FrameError(
                "RANGE frame offsets require a single numeric ORDER BY key")
        start = _range_positions(frame.start.type, offsets_for(frame.start),
                                 range_keys, peers, first, last,
                                 partition_ids, is_end=False)
        end = _range_positions(frame.end.type, offsets_for(frame.end),
                               range_keys, peers, first, last,
                               partition_ids, is_end=True)
    else:  # GROUPS
        if peers is None:
            raise FrameError("GROUPS frame requires a window ORDER BY")
        start = _groups_positions(frame.start.type, offsets_for(frame.start),
                                  peers, first, last, is_end=False)
        end = _groups_positions(frame.end.type, offsets_for(frame.end),
                                peers, first, last, is_end=True)

    start = np.clip(start, first, last)
    end = np.clip(end, first, last)
    end = np.maximum(end, start)
    return start, end


RangePair = Tuple[np.ndarray, np.ndarray]


def exclusion_ranges(start: np.ndarray, end: np.ndarray,
                     exclusion: FrameExclusion,
                     peers: Optional[PeerGroups] = None
                     ) -> List[RangePair]:
    """Split each row's frame into continuous ranges per the EXCLUDE
    clause. Returns 1–3 ``(lo, hi)`` array pairs in position order, so
    the excluded rows are the gaps between consecutive pieces; empty
    pieces have ``lo == hi`` and are skipped by consumers."""
    n = len(start)
    i = np.arange(n, dtype=np.int64)
    if exclusion is FrameExclusion.NO_OTHERS:
        return [(start, end)]
    if exclusion is FrameExclusion.CURRENT_ROW:
        hole_lo, hole_hi = i, i + 1
    else:
        if peers is None:
            raise FrameError(
                f"{exclusion.value} requires peer group information")
        hole_lo, hole_hi = peers.peer_start(), peers.peer_end()
    before = (start, np.clip(hole_lo, start, end))
    after = (np.clip(hole_hi, start, end), end)
    pieces = [before]
    if exclusion is FrameExclusion.TIES:
        # The current row itself stays in the frame.
        keep_lo = np.clip(i, start, end)
        keep_hi = np.clip(i + 1, keep_lo, end)
        pieces.append((keep_lo, keep_hi))
    pieces.append(after)
    return pieces


def row_ranges(pieces: List[RangePair], row: int) -> List[Tuple[int, int]]:
    """The non-empty frame ranges of one row."""
    out = []
    for lo, hi in pieces:
        a, b = int(lo[row]), int(hi[row])
        if a < b:
            out.append((a, b))
    return out


def frame_sizes(pieces: List[RangePair]) -> np.ndarray:
    """Per-row number of rows in the (possibly non-continuous) frame."""
    total = np.zeros(len(pieces[0][0]), dtype=np.int64)
    for lo, hi in pieces:
        total += np.maximum(hi - lo, 0)
    return total
