"""Phase-level cost breakdown of a framed distinct count (Figure 14).

The paper's Figure 14 splits a running COUNT DISTINCT over lineitem into
its execution phases. This module runs the same pipeline with a timer
around each phase:

1. partition/sort setup (sorting the input by the window ORDER BY),
2. populating the (value, position) array (Algorithm 1, line 4),
3. sorting it (line 5) — split in the paper into thread-local sort +
   merge; here it is one numpy sort,
4. computing ``prevIdcs`` (lines 7 ff.),
5. building the merge sort tree layers,
6. computing the results from the tree.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.mst.build import build_levels_numpy
from repro.mst.vectorized import batched_count


def distinct_count_phases(order_keys: np.ndarray, values: np.ndarray,
                          frame_preceding: int,
                          fanout: int = 2) -> List[Tuple[str, float]]:
    """Run a framed COUNT DISTINCT and time each phase.

    ``order_keys`` establishes the window frame order (e.g. l_shipdate),
    ``values`` is the distinct-counted column (e.g. l_partkey), and the
    frame is ``ROWS BETWEEN frame_preceding PRECEDING AND CURRENT ROW``
    (use ``frame_preceding >= n`` for the running UNBOUNDED frame).
    """
    n = len(values)
    phases: List[Tuple[str, float]] = []

    def timed(label: str, fn):
        start = time.perf_counter()
        result = fn()
        phases.append((label, time.perf_counter() - start))
        return result

    order = timed("sort window order",
                  lambda: np.argsort(order_keys, kind="stable"))
    sorted_values = timed("materialize partition",
                          lambda: values[order])
    # Algorithm 1: populate the (hash, position) pairs. Like Hyper we
    # sort hashes rather than values to stay type-agnostic (Section 6.7);
    # for integer inputs the identity hash suffices.
    pairs = timed("populate array",
                  lambda: np.stack([sorted_values,
                                    np.arange(n, dtype=np.int64)]))
    sort_order = timed("sort array",
                       lambda: np.lexsort((pairs[1], pairs[0])))

    def compute_prev() -> np.ndarray:
        by_value = pairs[0][sort_order]
        position = pairs[1][sort_order]
        prev = np.full(n, -1, dtype=np.int64)
        same = by_value[1:] == by_value[:-1]
        prev[position[1:][same]] = position[:-1][same]
        return prev

    prev = timed("compute prevIdcs", compute_prev)
    levels = timed("build tree layers",
                   lambda: build_levels_numpy(prev + 1, fanout=fanout))

    def probe() -> np.ndarray:
        i = np.arange(n, dtype=np.int64)
        lo = np.maximum(i - frame_preceding, 0)
        hi = i + 1
        return batched_count(levels, lo, hi, key_hi=lo + 1)

    counts = timed("compute results", probe)
    assert len(counts) == n
    return phases
