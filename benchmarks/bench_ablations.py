"""Ablations of the Section 5 implementation choices.

Beyond the paper's own Figure 13 parameter study, these benches isolate
the individual design decisions:

* fractional cascading on/off (Section 4.2) — same results, the
  cascaded descent against one search per level over (run id, key)
  codes;
* index width selection (Section 5.1) — int32 vs int64 levels;
* the two build paths (faithful multiway merge vs the numpy merge, one
  stable sort of (slab, key) codes per level);
* one m-row batched probe vs m one-row calls — the CPython-specific
  choice that stands in for Hyper's compiled probes.
"""

import numpy as np
import pytest

from conftest import emit
from repro.bench.harness import BenchSeries, measure, scaled
from repro.mst.build import build_levels_numpy, build_levels_scalar
from repro.mst.tree import MergeSortTree
from repro.mst.vectorized import batched_count


@pytest.fixture(scope="module")
def keys():
    n = scaled(20_000)
    return np.random.default_rng(5).integers(0, n, size=n, dtype=np.int64)


@pytest.fixture(scope="module")
def queries(keys):
    n = len(keys)
    rng = np.random.default_rng(6)
    lo = rng.integers(0, n, size=n)
    hi = np.minimum(lo + rng.integers(0, n // 4, size=n), n)
    thr = rng.integers(0, n, size=n)
    return lo, hi, thr


def _level_codes(levels):
    """Per level, the codes ``run id * span + (key - low)`` of its
    entries, sorted, as every run is (the tree keeps only level 0, so
    each level is level 0's codes sorted). ``span`` leaves one code
    above the largest key."""
    keys = levels.keys[0].astype(np.int64)
    low = int(keys.min())
    span = int(keys.max()) - low + 2
    positions = np.arange(levels.n)
    codes = [np.sort((positions // levels.fanout ** level) * span
                     + (keys - low))
             for level in range(levels.height)]
    return codes, low, span


def _count_searching_every_level(levels, coded, lo, hi, key_hi):
    """``batched_count`` with a search per level instead of the bridges.

    A prefix ``[0, x)`` is, on every level, the runs of ``x``'s parent
    node left of ``x``; one ``searchsorted`` over the level's ``(run id,
    key)`` codes bounds all of them, for every query at once."""
    codes, low, span = coded
    x = np.concatenate([hi, lo])
    key = np.clip(np.concatenate([key_hi, key_hi]) - low, 0, span - 1)
    prefix = np.zeros(len(x), dtype=np.int64)
    for level, level_codes in enumerate(codes):
        run_len = levels.fanout ** level
        first = x // (run_len * levels.fanout) * levels.fanout
        runs = x // run_len - first
        query = np.repeat(np.arange(len(x)), runs)
        run = first[query] + np.arange(len(query)) \
            - np.repeat(np.cumsum(runs) - runs, runs)
        bound = np.searchsorted(level_codes, run * span + key[query]) \
            - run * run_len
        prefix += np.bincount(query, weights=bound,
                              minlength=len(x)).astype(np.int64)
    return prefix[:len(lo)] - prefix[len(lo):]


def test_cascading_ablation(benchmark, keys, queries):
    """Fractional cascading on and off over the same queries: the
    cascaded descent, and the same prefix counts with one
    ``searchsorted`` per level over ``(run id, key)`` codes instead of
    the bridges. Identical results."""
    lo, hi, thr = queries
    levels = build_levels_numpy(keys, fanout=32, sample_every=32)
    coded = _level_codes(levels)

    def with_bridges():
        return batched_count(levels, lo, hi, thr)

    def searching_every_level():
        return _count_searching_every_level(levels, coded, lo, hi, thr)

    t_cascaded = measure(with_bridges, repeats=2)
    t_search = measure(searching_every_level, repeats=2)
    assert np.array_equal(with_bridges(), searching_every_level())
    series = BenchSeries("Ablation — fractional cascading (batched counts)",
                         ["variant", "seconds", "rows"])
    series.add("with cascading", t_cascaded, len(lo))
    series.add("searchsorted per level over (run id, key) codes", t_search,
               len(lo))
    emit(series)
    benchmark.pedantic(with_bridges, rounds=1, iterations=1)


def test_builder_ablation(benchmark, keys):
    """The numpy build must dominate the faithful scalar merge by a wide
    margin (that margin is why the vectorised path exists) while
    producing bit-identical levels."""
    # Fixed size: below ~2k rows interpreter constants blur the
    # comparison, so this ablation does not scale down.
    subset = np.random.default_rng(9).integers(0, 4_000, size=4_000)
    t_numpy = measure(lambda: build_levels_numpy(subset, fanout=2),
                      repeats=2)
    t_scalar = measure(lambda: build_levels_scalar(subset, fanout=2))
    a = build_levels_numpy(subset, fanout=2)
    b = build_levels_scalar(subset, fanout=2)
    for la, lb in zip(a.bridges[1:], b.bridges[1:]):
        assert np.array_equal(la, lb)
    series = BenchSeries("Ablation — tree build paths",
                         ["builder", "seconds"])
    series.add("numpy stable sort of (slab, key) codes per level", t_numpy)
    series.add("faithful multiway merge", t_scalar)
    emit(series)
    assert t_numpy < t_scalar
    benchmark(build_levels_numpy, subset, fanout=2)


def test_index_width_selection(benchmark, keys):
    """Section 5.1: small partitions use 32-bit indices. Keys beyond
    int32 widen the one key array a tree keeps (level 0); its bridges
    and key counts are sized by n."""
    small = MergeSortTree(keys, fanout=2)
    assert small.levels.keys[0].dtype == np.int32
    big_keys = keys.astype(np.int64) + 2**31
    big = MergeSortTree(big_keys, fanout=2)
    assert big.levels.keys[0].dtype == np.int64
    assert big.memory_bytes() == small.memory_bytes() + 4 * len(keys)
    benchmark(MergeSortTree, keys, fanout=2)


def test_vectorized_vs_scalar_probe(benchmark, keys, queries):
    """One m-row batched probe amortises interpreter overhead across all
    rows; m one-row calls into the same kernel pay it m times."""
    lo, hi, thr = queries
    tree = MergeSortTree(keys, fanout=2)
    m = min(len(keys), scaled(3_000))

    def one_row_calls():
        return [tree.count_below(int(lo[i]), int(hi[i]), int(thr[i]))
                for i in range(m)]

    def vectorized():
        return batched_count(tree.levels, lo[:m], hi[:m], thr[:m])

    t_scalar = measure(one_row_calls)
    t_vec = measure(vectorized, repeats=2)
    assert list(vectorized()) == one_row_calls()
    series = BenchSeries("Ablation — one-row calls vs one batched probe",
                         ["variant", "seconds", "rows"])
    series.add("m one-row calls", t_scalar, m)
    series.add("one m-row call", t_vec, m)
    emit(series)
    assert t_vec < t_scalar
    benchmark.pedantic(vectorized, rounds=3, iterations=1)
