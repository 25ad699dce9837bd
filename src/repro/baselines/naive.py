"""Naive per-frame recomputation (the paper's "naive" competitor).

Every function materialises each row's frame and recomputes the result
from scratch: simple, obviously correct, O(n * frame_size). These
functions double as the correctness oracle for the merge-sort-tree and
incremental implementations, so they are written for clarity.

All functions take ``pieces``: the ``i``-th frame is the union of
``[lo[i], hi[i])`` over the ``(lo, hi)`` pairs (frames split by EXCLUDE
clauses arrive as multiple pieces), and they answer one value per
frame. Value arrays span the whole partition; where the answer depends
on the answering row itself (its rank key), ``rows[i]`` is that row's
position — by default the ``i``-th frame belongs to row ``i``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.preprocess.occurrences import distinct_key
from repro.resilience.context import current_context

RangePair = Tuple[np.ndarray, np.ndarray]


def frame_rows(pieces: Sequence[RangePair], row: int) -> List[int]:
    """The row indices of the ``row``-th frame, in frame order."""
    rows: List[int] = []
    for lo, hi in pieces:
        rows.extend(range(int(lo[row]), int(hi[row])))
    return rows


def num_frames(pieces: Sequence[RangePair]) -> int:
    """How many frames ``pieces`` describe."""
    return len(pieces[0][0])


def naive_distinct_count(values: Sequence[Any], keep: Sequence[bool],
                         pieces: Sequence[RangePair]) -> List[int]:
    """COUNT(DISTINCT values) per frame, ignoring rows with keep=False."""
    n = num_frames(pieces)
    values = [distinct_key(v) for v in values]
    out = []
    ctx = current_context()
    for i in range(n):
        ctx.tick(i)
        seen = {values[j] for j in frame_rows(pieces, i) if keep[j]}
        out.append(len(seen))
    return out


def naive_distinct_aggregate(values: Sequence[Any], keep: Sequence[bool],
                             pieces: Sequence[RangePair],
                             fold: Callable[[List[Any]], Any]) -> List[Any]:
    """``fold`` over the distinct kept values of each frame (None if
    empty). ``fold`` receives the distinct values in first-seen order."""
    n = num_frames(pieces)
    values = [distinct_key(v) for v in values]
    out = []
    ctx = current_context()
    for i in range(n):
        ctx.tick(i)
        seen: dict = {}
        for j in frame_rows(pieces, i):
            if keep[j] and values[j] not in seen:
                seen[values[j]] = True
        out.append(fold(list(seen)) if seen else None)
    return out


def naive_kth(order_keys: Sequence[Any], result_values: Sequence[Any],
              keep: Sequence[bool], pieces: Sequence[RangePair],
              ks: Sequence[Optional[int]]) -> List[Any]:
    """Per row: the value of ``result_values`` at the k-th kept frame row
    when ordered (stably) by ``order_keys``; None when out of range."""
    n = num_frames(pieces)
    out = []
    ctx = current_context()
    for i in range(n):
        ctx.tick(i)
        rows = [j for j in frame_rows(pieces, i) if keep[j]]
        rows.sort(key=lambda j: (order_keys[j], j))
        k = ks[i]
        if k is None or not 0 <= k < len(rows):
            out.append(None)
        else:
            out.append(result_values[rows[k]])
    return out


def naive_percentile_disc(values: Sequence[Any], keep: Sequence[bool],
                          pieces: Sequence[RangePair],
                          fraction: float) -> List[Any]:
    """PERCENTILE_DISC(fraction) of the kept frame values per row."""
    n = num_frames(pieces)
    out = []
    ctx = current_context()
    for i in range(n):
        ctx.tick(i)
        frame = sorted(values[j] for j in frame_rows(pieces, i) if keep[j])
        if not frame:
            out.append(None)
            continue
        k = max(math.ceil(fraction * len(frame)) - 1, 0)
        out.append(frame[k])
    return out


def naive_percentile_cont(values: Sequence[Any], keep: Sequence[bool],
                          pieces: Sequence[RangePair],
                          fraction: float) -> List[Optional[float]]:
    """PERCENTILE_CONT(fraction): linear interpolation between the two
    nearest kept frame values."""
    n = num_frames(pieces)
    out: List[Optional[float]] = []
    ctx = current_context()
    for i in range(n):
        ctx.tick(i)
        frame = sorted(float(values[j])
                       for j in frame_rows(pieces, i) if keep[j])
        if not frame:
            out.append(None)
            continue
        position = fraction * (len(frame) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        weight = position - lower
        out.append(frame[lower] * (1 - weight) + frame[upper] * weight)
    return out


def naive_rank(rank_keys: Sequence[Any], keep: Sequence[bool],
               pieces: Sequence[RangePair],
               ties: str = "strict",
               rows: Optional[Sequence[int]] = None) -> List[int]:
    """Framed RANK: 1 + kept frame rows with key strictly below the
    current row's key (``ties='strict'``), or with key <= for
    ``ties='at_most'`` (the CUME_DIST numerator)."""
    rows = range(num_frames(pieces)) if rows is None else rows
    out = []
    ctx = current_context()
    for i, row in enumerate(rows):
        ctx.tick(i)
        key = rank_keys[row]
        if ties == "strict":
            count = sum(1 for j in frame_rows(pieces, i)
                        if keep[j] and rank_keys[j] < key)
        else:
            count = sum(1 for j in frame_rows(pieces, i)
                        if keep[j] and rank_keys[j] <= key)
        out.append(count + 1)
    return out


def naive_dense_rank(rank_keys: Sequence[Any], keep: Sequence[bool],
                     pieces: Sequence[RangePair],
                     rows: Optional[Sequence[int]] = None) -> List[int]:
    """Framed DENSE_RANK: 1 + distinct kept frame keys strictly below the
    current row's key."""
    rows = range(num_frames(pieces)) if rows is None else rows
    out = []
    ctx = current_context()
    for i, row in enumerate(rows):
        ctx.tick(i)
        key = rank_keys[row]
        seen = {rank_keys[j] for j in frame_rows(pieces, i)
                if keep[j] and rank_keys[j] < key}
        out.append(len(seen) + 1)
    return out
