"""Tuning the merge sort tree: fanout f, pointer sampling k, memory.

Reproduces the Section 5.1 / 6.6 reasoning in miniature: sweep a few
(f, k) configurations on a windowed-rank workload, print measured
build+probe times next to the closed-form memory model, and show why the
paper settles on f = k = 32 — not the fastest cell, but a fraction of
the memory of the fastest one. The last column is the layout this
package builds instead (level 0, a top-level count table and an exact
bridge count per position: an int32 per entry, level and child column
at k = 1, about f - 1 bytes per entry and level above), whose memory
grows with f rather than f / k.

Run with::

    python examples/fanout_tuning.py
"""

import time

import numpy as np

from repro import MemoryModel, MergeSortTree
from repro.mst.stats import live_tree_bytes
from repro.mst.vectorized import batched_count


def sweep(n: int = 20_000, queries: int = 4_000) -> None:
    rng = np.random.default_rng(7)
    keys = rng.integers(0, n, size=n, dtype=np.int64)
    frame = n // 20
    rows = rng.integers(0, n, size=queries)

    print(f"windowed rank on {n:,} random integers, frame {frame}, "
          f"{queries:,} probes")
    print(f"{'f':>4} {'k':>5} {'build+probe':>12} {'model GB @100M':>15} "
          f"{'live GB @100M':>14}")
    results = {}
    for fanout, sampling in [(2, 1), (2, 32), (8, 8), (16, 4), (32, 32),
                             (64, 64)]:
        start = time.perf_counter()
        tree = MergeSortTree(keys, fanout=fanout, sample_every=sampling)
        # One batched count over every probe, as the window operator
        # issues them.
        batched_count(tree.levels, np.maximum(rows - frame, 0), rows + 1,
                      keys[rows])
        elapsed = time.perf_counter() - start
        model = MemoryModel(100_000_000, fanout, sampling)
        live = live_tree_bytes(100_000_000, fanout, sampling) / 1e9
        results[(fanout, sampling)] = (elapsed, model.gigabytes)
        print(f"{fanout:>4} {sampling:>5} {elapsed:>11.3f}s "
              f"{model.gigabytes:>14.1f} {live:>14.1f}")

    fast = min(results.items(), key=lambda kv: kv[1][0])
    chosen = results[(32, 32)]
    print(f"\nfastest cell: f={fast[0][0]}, k={fast[0][1]} "
          f"({fast[1][0]:.3f}s, {fast[1][1]:.1f} GB at 100M keys)")
    print(f"paper's choice f=k=32: {chosen[0]:.3f}s, {chosen[1]:.1f} GB "
          f"— {fast[1][1] / chosen[1]:.1f}x less memory than the "
          f"fastest cell")


if __name__ == "__main__":
    sweep()
