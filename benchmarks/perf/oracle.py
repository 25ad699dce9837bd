"""Brute-force frame evaluation in plain numpy — the window oracle.

Shares no code with ``repro``: for a sampled output row it sorts the
table the way SQL says (stable, by the window ORDER BY, within the
PARTITION BY), cuts the frame out of that order and evaluates the
function over the frame's rows directly. O(frame) per row, so it checks
a seeded sample of rows, not all of them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from benchmarks.perf.statements import Frame, WindowStatement

#: Rows sampled per statement.
SAMPLE = 64


def sample_rows(n: int, seed: int) -> List[int]:
    """The seeded row positions a result of ``n`` rows is checked at."""
    rng = np.random.default_rng(seed)
    return [int(r) for r in rng.choice(n, min(SAMPLE, n), replace=False)]


def _frame_rows(frame: Frame, cols: Dict[str, np.ndarray],
                order: np.ndarray, position: np.ndarray,
                partitions: Optional[np.ndarray], row: int) -> np.ndarray:
    """Row ids of ``row``'s frame, in window order; ``partitions`` is
    the PARTITION BY column in that order."""
    p = int(position[row])
    if partitions is None:
        start, stop = 0, len(order)
    else:
        start = int(np.searchsorted(partitions, partitions[p], side="left"))
        stop = int(np.searchsorted(partitions, partitions[p], side="right"))
    if frame.kind == "rows":
        lo, hi = p - frame.preceding, p + 1
    elif frame.kind == "nonmono":
        lo = p - int(cols["l_quantity"][row]) * 20
        hi = p + int(cols["l_suppkey"][row]) % 50 + 1
    else:  # range: every row whose date is within k days before, peers too
        dates = cols["l_shipdate"][order[start:stop]]
        day = cols["l_shipdate"][row]
        lo = start + int(np.searchsorted(dates, day - frame.preceding,
                                         side="left"))
        hi = start + int(np.searchsorted(dates, day, side="right"))
    return order[max(lo, start):min(hi, stop)]


def _evaluate(function: str, values: np.ndarray, rows: np.ndarray,
              row: int) -> Any:
    inside = values[rows]
    if function == "distinct":
        return len(np.unique(inside))
    if function == "sumdistinct":
        return np.unique(inside).sum()
    if function == "median":  # percentile_disc(0.5)
        return np.sort(inside)[max(math.ceil(0.5 * len(inside)) - 1, 0)]
    if function == "rank":
        return 1 + int((inside < values[row]).sum())
    if function == "dense_rank":
        return 1 + len(np.unique(inside[inside < values[row]]))
    if function == "nth5":
        return inside[4] if len(inside) >= 5 else None
    if function == "lead":
        # Frame rows ordered by value, ties by window order; the row
        # after the current one, or NULL when the current one is last.
        by_value = rows[np.argsort(inside, kind="stable")]
        after = int(np.flatnonzero(by_value == row)[0]) + 1
        return values[by_value[after]] if after < len(by_value) else None
    raise ValueError(f"oracle has no function {function!r}")


def expected(stmt: WindowStatement, cols: Dict[str, np.ndarray],
             sample: Sequence[int]) -> Dict[str, List[Any]]:
    """Per output column, the value each sampled row must carry."""
    n = len(cols["l_shipdate"])
    sort_keys = [cols["l_shipdate"]]
    if stmt.frame.partition_by is not None:
        sort_keys.append(cols[stmt.frame.partition_by])
    order = np.lexsort(sort_keys)  # stable; last key is the primary one
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    partitions = (None if stmt.frame.partition_by is None
                  else cols[stmt.frame.partition_by][order])
    frames = [_frame_rows(stmt.frame, cols, order, position, partitions, row)
              for row in sample]
    return {name: [_evaluate(function, cols[column], rows, row)
                   for rows, row in zip(frames, sample)]
            for name, (function, column) in stmt.outputs.items()}


def mismatches(stmt: WindowStatement, cols: Dict[str, np.ndarray],
               sample: Sequence[int], actual: Dict[str, Sequence[Any]]
               ) -> List[str]:
    """Describe every sampled cell where ``actual`` (output column ->
    values at the sampled rows) differs from the brute-force value."""
    wrong = []
    for name, want in expected(stmt, cols, sample).items():
        for row, w, got in zip(sample, want, actual[name]):
            if not (got is None if w is None else got == w):
                wrong.append(f"{stmt.name}.{name}[row {row}]: "
                             f"engine {got!r}, brute force {w!r}")
    return wrong
