"""Memory model (Section 5.1 formula, Section 6.6 numbers)."""

import pytest

from repro.mst import MemoryModel, MergeSortTree, tree_memory_elements
from repro.mst.stats import (
    _levels_above_input,
    live_tree_bytes,
    measured_vs_model,
)


def test_levels_above_input():
    assert _levels_above_input(1, 2) == 0
    assert _levels_above_input(2, 2) == 1
    assert _levels_above_input(1_000_000, 32) == 4
    assert _levels_above_input(100_000_000, 16) == 7
    assert _levels_above_input(100_000_000, 32) == 6


def test_paper_section_6_6_numbers():
    """f=16,k=4 -> 12.4 GB; f=k=32 -> 4.4 GB at 100M, 32-bit."""
    assert MemoryModel(100_000_000, 16, 4).gigabytes == pytest.approx(
        12.4, abs=0.01)
    assert MemoryModel(100_000_000, 32, 32).gigabytes == pytest.approx(
        4.4, abs=0.01)


def test_overhead_factor_matches_paper():
    """Section 6.6: 4.4 GB over a 1.6 GB operator baseline -> 2.75x."""
    model = MemoryModel(100_000_000, 32, 32)
    assert model.bytes / 1.6e9 == pytest.approx(2.75, abs=0.01)


def test_larger_fanout_reduces_elements():
    small_f = tree_memory_elements(1_000_000, 2, 32)
    large_f = tree_memory_elements(1_000_000, 32, 32)
    assert large_f < small_f


def test_larger_sampling_reduces_elements():
    dense = tree_memory_elements(1_000_000, 16, 1)
    sparse = tree_memory_elements(1_000_000, 16, 64)
    assert sparse < dense


def test_zero_and_one_elements():
    assert tree_memory_elements(0, 2, 32) == 0
    assert tree_memory_elements(1, 2, 32) == 0


def test_measured_vs_model_bands(rng):
    for fanout, k in [(2, 1), (2, 256), (3, 1), (16, 4), (32, 32)]:
        keys = rng.integers(0, 3000, size=3000)
        tree = MergeSortTree(keys, fanout=fanout, sample_every=k)
        report = measured_vs_model(tree)
        # The live layout is predicted exactly from (n, f, k): every
        # array is counted by memory_bytes().
        assert report["ratio"] == 1.0, (fanout, k, report)
        assert report["measured_bytes"] == live_tree_bytes(3000, fanout, k)
    # Against the paper's sampled pointers: well below at f = 2, where
    # the live tree keeps no sorted level between level 0 and the top,
    # and the per-position offsets cost ~f bytes per entry at large
    # fanouts.
    binary = measured_vs_model(MergeSortTree(keys, fanout=2))
    assert 0.3 < binary["paper_ratio"] < 0.5, binary
    assert report["paper_ratio"] > 3, report


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 65, 1000])
@pytest.mark.parametrize("k", [1, 256])
def test_engine_tree_keeps_only_level_0_and_bridges(n, k, rng):
    """A fanout-2 tree over a permutation, as the window evaluators
    build it: level 0 is its only key array, the counts table holds
    n + 1 entries, and live_tree_bytes is its measured size."""
    tree = MergeSortTree(rng.permutation(n), fanout=2, sample_every=k)
    levels = tree.levels
    assert len(levels.keys) == 1
    assert len(levels.top.table) == n + 1
    assert len(levels.bridges) == tree.height
    assert all((a is None) == (k == 1) for a in levels.anchors[1:])
    assert tree.memory_bytes() == live_tree_bytes(
        n, 2, k, key_bytes=levels.keys[0].itemsize)


def test_str_rendering():
    text = str(MemoryModel(1000, 32, 32))
    assert "f=32" in text and "GB" in text
