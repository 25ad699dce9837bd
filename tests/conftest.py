"""Shared test fixtures."""

import numpy as np
import pytest
from hypothesis import settings

from repro.table import DataType, Table

# ``--hypothesis-profile=long``: the generated suites that take their
# example count from the profile run 20x the default.
settings.register_profile("long", max_examples=2000, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_window_table(n: int = 120, seed: int = 42,
                      null_fraction: float = 0.1) -> Table:
    """A small mixed table exercised by the window-function tests."""
    rng = np.random.default_rng(seed)
    xs = [int(v) if rng.random() > null_fraction else None
          for v in rng.integers(0, 15, n)]
    return Table.from_dict({
        "g": (DataType.INT64, [int(v) for v in rng.integers(0, 3, n)]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 40, n)]),
        "x": (DataType.INT64, xs),
        "y": (DataType.FLOAT64, [float(v) for v in rng.normal(size=n)]),
        "flag": (DataType.BOOL, [bool(v) for v in rng.integers(0, 2, n)]),
    }, name="t")


@pytest.fixture
def window_table():
    return make_window_table()


# ----------------------------------------------------------------------
# lock-step oracles for the cascaded kernels: they read each level's
# keys, recomputed from level 0, never its bridges
# ----------------------------------------------------------------------
def level_keys(levels):
    """Every level's keys of the tree ``levels``, recomputed from level
    0 alone: level ``L`` is each aligned run of ``fanout**L`` entries of
    level 0 sorted stably by (key, position). A tree keeps only level 0,
    and this never reads its bridges."""
    keys = np.asarray(levels.keys[0])
    positions = np.arange(len(keys))
    return [keys[np.lexsort((positions, keys,
                             positions // levels.fanout ** level))]
            for level in range(levels.height)]


def covering_runs(fanout, height, lo, hi):
    """Yield ``(level, run_start, run_stop, mask)`` batches that cover
    every query's ``[lo, hi)`` (``0 <= lo``, ``hi <= n``) with whole,
    aligned runs of a fanout-``f`` tree of ``height`` levels; ``mask``
    says which queries the batch's runs belong to.

    The order is the peel's, bottom-up: at each level, ``lo``'s side left
    to right, then ``hi``'s side right to left — the order in which
    ``batched_aggregate`` combines its covering runs' prefix states."""
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    length = 1
    for level in range(height):
        parent = length * fanout
        for _ in range(fanout - 1):
            mask = (lo % parent != 0) & (lo < hi)
            if not mask.any():
                break
            yield level, lo, lo + length, mask
            lo = np.where(mask, lo + length, lo)
        for _ in range(fanout - 1):
            mask = (hi % parent != 0) & (lo < hi)
            if not mask.any():
                break
            yield level, hi - length, hi, mask
            hi = np.where(mask, hi - length, hi)
        if not (lo < hi).any():
            break
        length = parent


def max_runs_per_level(fanout):
    """Upper bound on covering runs contributed by one level for one
    range."""
    return 2 * (fanout - 1)


def lockstep_lower_bound(arr, start, stop, target):
    """Per query ``start + searchsorted(arr[start:stop], target)``: one
    binary search with all queries advanced in lock step."""
    lo = np.asarray(start, dtype=np.int64).copy()
    hi = np.asarray(stop, dtype=np.int64).copy()
    span = int(np.max(hi - lo, initial=0))
    for _ in range(max(span, 1).bit_length()):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        probe = np.where(active, mid, 0)
        go_right = active & (arr[probe] < target)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def lockstep_count(levels, lo, hi, key_hi, key_lo=None):
    """Per query: entries at slab positions ``[lo, hi)`` with key in
    ``[key_lo, key_hi)`` (``key_lo`` omitted: unbounded below), one
    binary search per covering run."""
    total = np.zeros(len(lo), dtype=np.int64)
    sorted_levels = level_keys(levels)
    for level, run_lo, run_hi, mask in covering_runs(
            levels.fanout, levels.height, lo, hi):
        keys = sorted_levels[level]
        idx = np.flatnonzero(mask)
        start, stop = run_lo[idx], run_hi[idx]
        upper = lockstep_lower_bound(keys, start, stop, key_hi[idx])
        lower = start if key_lo is None else lockstep_lower_bound(
            keys, start, stop, key_lo[idx])
        total[idx] += upper - lower
    return total


def assert_columns_equal(a, b, tolerance=1e-9):
    """Compare two result column value lists with float tolerance."""
    assert len(a) == len(b), f"length mismatch: {len(a)} vs {len(b)}"
    for i, (u, v) in enumerate(zip(a, b)):
        if isinstance(u, float) and isinstance(v, float):
            assert abs(u - v) < tolerance, (i, u, v)
        else:
            assert u == v, (i, u, v)
