"""Resolving frame specifications to per-row index ranges.

Given one sorted partition of ``n`` rows, :func:`resolve_bounds` turns a
:class:`~repro.window.frame.FrameSpec` into two arrays ``start``/``end``
with the half-open frame ``[start[i], end[i])`` for every row — entirely
with vectorised searches, including per-row (non-constant, possibly
non-monotonic) offsets.

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
    """Peer-group geometry of one sorted partition."""

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


def _rows_positions(bound_type: BoundType, offsets: Optional[np.ndarray],
                    n: int, is_end: bool) -> np.ndarray:
    i = np.arange(n, dtype=np.int64)
    shift = 1 if is_end else 0
    if bound_type is BoundType.UNBOUNDED_PRECEDING:
        return np.zeros(n, dtype=np.int64)
    if bound_type is BoundType.UNBOUNDED_FOLLOWING:
        return np.full(n, n, dtype=np.int64)
    if bound_type is BoundType.CURRENT_ROW:
        return i + shift
    off = offsets.astype(np.int64)
    if bound_type is BoundType.PRECEDING:
        return i - off + shift
    return i + off + shift  # FOLLOWING


def _range_positions(bound_type: BoundType, offsets: Optional[np.ndarray],
                     keys: Optional[np.ndarray], peers: Optional[PeerGroups],
                     n: int, is_end: bool) -> np.ndarray:
    side = "right" if is_end else "left"
    if bound_type is BoundType.UNBOUNDED_PRECEDING:
        return np.zeros(n, dtype=np.int64)
    if bound_type is BoundType.UNBOUNDED_FOLLOWING:
        return np.full(n, n, dtype=np.int64)
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
    return np.searchsorted(keys, targets, side=side).astype(np.int64)


def _groups_positions(bound_type: BoundType, offsets: Optional[np.ndarray],
                      peers: PeerGroups, n: int, is_end: bool) -> np.ndarray:
    if bound_type is BoundType.UNBOUNDED_PRECEDING:
        return np.zeros(n, dtype=np.int64)
    if bound_type is BoundType.UNBOUNDED_FOLLOWING:
        return np.full(n, n, dtype=np.int64)
    g = peers.group_ids
    num = peers.num_groups
    if bound_type is BoundType.CURRENT_ROW:
        target = g
    elif bound_type is BoundType.PRECEDING:
        target = g - offsets.astype(np.int64)
    else:
        target = g + offsets.astype(np.int64)
    clipped = np.clip(target, 0, max(num - 1, 0))
    if is_end:
        positions = peers.end_of_group[clipped]
        positions = np.where(target < 0, 0, positions)
        positions = np.where(target >= num, n, positions)
    else:
        positions = peers.first_of_group[clipped]
        positions = np.where(target < 0, 0, positions)
        positions = np.where(target >= num, n, positions)
    return positions.astype(np.int64)


def resolve_bounds(frame: FrameSpec, n: int, *,
                   range_keys: Optional[np.ndarray] = None,
                   peers: Optional[PeerGroups] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row half-open frame bounds for one sorted partition.

    ``range_keys`` (RANGE mode only): the window ORDER BY key reduced to
    an *ascending* float array with NULLs mapped to ``±inf`` — the caller
    handles DESC by negation, exactly the integer-reduction strategy of
    Section 5.1. ``peers`` is required for GROUPS mode.
    """
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    def offsets_for(bound) -> Optional[np.ndarray]:
        if bound.type in (BoundType.PRECEDING, BoundType.FOLLOWING):
            return bound.offset_array(n)
        return None

    if frame.mode is FrameMode.ROWS:
        start = _rows_positions(frame.start.type, offsets_for(frame.start),
                                n, is_end=False)
        end = _rows_positions(frame.end.type, offsets_for(frame.end),
                              n, is_end=True)
    elif frame.mode is FrameMode.RANGE:
        has_offsets = (frame.start.type in (BoundType.PRECEDING,
                                            BoundType.FOLLOWING)
                       or frame.end.type in (BoundType.PRECEDING,
                                             BoundType.FOLLOWING))
        if range_keys is None and has_offsets:
            raise FrameError(
                "RANGE frame offsets require a single numeric ORDER BY key")
        start = _range_positions(frame.start.type, offsets_for(frame.start),
                                 range_keys, peers, n, is_end=False)
        end = _range_positions(frame.end.type, offsets_for(frame.end),
                               range_keys, peers, n, is_end=True)
    else:  # GROUPS
        if peers is None:
            raise FrameError("GROUPS frame requires a window ORDER BY")
        start = _groups_positions(frame.start.type, offsets_for(frame.start),
                                  peers, n, is_end=False)
        end = _groups_positions(frame.end.type, offsets_for(frame.end),
                                peers, n, is_end=True)

    start = np.clip(start, 0, n)
    end = np.clip(end, 0, n)
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
