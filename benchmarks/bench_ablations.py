"""Ablations of the Section 5 implementation choices.

Beyond the paper's own Figure 13 parameter study, these benches isolate
the individual design decisions:

* fractional cascading on/off (Section 4.2) — same results, fewer
  binary-search steps per query;
* index width selection (Section 5.1) — int32 vs int64 levels;
* the two build paths (faithful multiway merge vs the numpy merge, one
  stable sort of (slab, key) codes per level);
* vectorised (batched) vs per-row scalar probing — the CPython-specific
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


def test_cascading_ablation(benchmark, keys, queries):
    """Cascaded vs plain scalar queries: identical results, and the
    cascaded walk does asymptotically fewer comparisons."""
    lo, hi, thr = queries
    sample = range(0, len(keys), max(len(keys) // 500, 1))
    cascaded = MergeSortTree(keys, fanout=32, sample_every=32,
                             cascading=True)
    plain = MergeSortTree(keys, fanout=32, sample_every=32,
                          cascading=False)

    def probe(tree):
        return [tree.count_below(int(lo[i]), int(hi[i]), int(thr[i]))
                for i in sample]

    t_cascaded = measure(lambda: probe(cascaded), repeats=2)
    t_plain = measure(lambda: probe(plain), repeats=2)
    assert probe(cascaded) == probe(plain)
    series = BenchSeries("Ablation — fractional cascading (scalar probes)",
                         ["variant", "seconds"])
    series.add("with cascading", t_cascaded)
    series.add("binary search per run", t_plain)
    emit(series)
    benchmark.pedantic(lambda: probe(cascaded), rounds=1, iterations=1)


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
    for la, lb in zip(a.keys, b.keys):
        assert np.array_equal(la, lb)
    series = BenchSeries("Ablation — tree build paths",
                         ["builder", "seconds"])
    series.add("numpy stable sort of (slab, key) codes per level", t_numpy)
    series.add("faithful multiway merge", t_scalar)
    emit(series)
    assert t_numpy < t_scalar
    benchmark(build_levels_numpy, subset, fanout=2)


def test_index_width_selection(benchmark, keys):
    """Section 5.1: small partitions use 32-bit indices."""
    small = MergeSortTree(keys, fanout=2)
    assert small.levels.keys[0].dtype == np.int32
    big_keys = keys.astype(np.int64) + 2**31
    big = MergeSortTree(big_keys, fanout=2)
    assert big.levels.keys[0].dtype == np.int64
    assert big.memory_bytes() > small.memory_bytes() * 1.5
    benchmark(MergeSortTree, keys, fanout=2)


def test_vectorized_vs_scalar_probe(benchmark, keys, queries):
    """The batched numpy probe amortises interpreter overhead across all
    rows; per-row scalar probing pays it n times."""
    lo, hi, thr = queries
    tree = MergeSortTree(keys, fanout=2)
    m = min(len(keys), scaled(3_000))

    def scalar():
        return [tree.count_below(int(lo[i]), int(hi[i]), int(thr[i]))
                for i in range(m)]

    def vectorized():
        return batched_count(tree.levels, lo[:m], hi[:m], thr[:m])

    t_scalar = measure(scalar)
    t_vec = measure(vectorized, repeats=2)
    assert list(vectorized()) == scalar()
    series = BenchSeries("Ablation — scalar vs batched probing",
                         ["variant", "seconds", "rows"])
    series.add("per-row scalar (cascaded)", t_scalar, m)
    series.add("numpy batched", t_vec, m)
    emit(series)
    assert t_vec < t_scalar
    benchmark.pedantic(vectorized, rounds=3, iterations=1)
