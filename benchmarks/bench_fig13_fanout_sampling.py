"""Figure 13 — fanout f and pointer-sampling k parameter study.

Single-threaded merge sort tree build + windowed-rank probe over
uniformly random integers for a grid of (f, k). The paper (1M keys,
f 2..256, k 1..1024) finds the best runtime at f=16, k=4 but picks
f=k=32 for its ~2.8x lower memory at < 1.25x the best runtime.
"""

import numpy as np
import pytest

from conftest import emit
from repro.bench.figures import fig13_fanout_sampling
from repro.bench.harness import scaled
from repro.mst.stats import MemoryModel
from repro.mst.tree import MergeSortTree
from repro.mst.vectorized import batched_count


@pytest.fixture(scope="module")
def keys():
    n = scaled(5_000)
    return np.random.default_rng(13).integers(0, n, size=n, dtype=np.int64)


@pytest.mark.parametrize("fanout,sampling", [(2, 32), (16, 4), (32, 32)])
def test_build_probe_cell(benchmark, keys, fanout, sampling):
    n = len(keys)
    frame = max(n // 20, 1)
    rows = np.arange(0, n, 4)

    def job():
        tree = MergeSortTree(keys, fanout=fanout, sample_every=sampling)
        batched_count(tree.levels, np.maximum(rows - frame, 0), rows + 1,
                      keys[rows])

    benchmark.pedantic(job, rounds=1, iterations=1)


def test_figure13_grid(benchmark):
    series = benchmark.pedantic(fig13_fanout_sampling, rounds=1,
                                iterations=1)
    emit(series)
    cells = {(r[0], r[1]): r for r in series.rows}

    # The paper's chosen configuration must be within a small factor of
    # the measured optimum...
    chosen = cells[(32, 32)]
    assert chosen[3] < 3.0, "f=k=32 should be within 3x of the best cell"
    # ... while using much less memory than the fastest small-f cells.
    small = MemoryModel(1_000_000, 16, 4).elements
    big = MemoryModel(1_000_000, 32, 32).elements
    assert small / big > 2.5, "paper: 12.4 GB vs 4.4 GB at 100M keys"


def test_memory_model_matches_paper(benchmark):
    """Section 6.6 closed-form check at the paper's 100M-element size."""
    def check():
        assert abs(MemoryModel(100_000_000, 16, 4).gigabytes - 12.4) < 0.05
        assert abs(MemoryModel(100_000_000, 32, 32).gigabytes - 4.4) < 0.05
    benchmark.pedantic(check, rounds=1, iterations=1)
