"""Spooling merge sort trees to disk."""

import numpy as np
import pytest

from repro.mst import MAX, MIN, SUM, AVG, MergeSortTree
from repro.mst.persist import load_tree, save_tree
from repro.mst.vectorized import batched_aggregate, batched_count


def test_roundtrip_count_queries(tmp_path, rng):
    n = 300
    keys = rng.integers(-1, n, size=n)
    tree = MergeSortTree(keys, fanout=4, sample_every=8)
    path = tmp_path / "tree.npz"
    save_tree(tree, path)
    loaded = load_tree(path)
    assert loaded.fanout == 4
    assert loaded.sample_every == 8
    for ours, theirs in zip(loaded.levels.anchors + loaded.levels.bridges,
                            tree.levels.anchors + tree.levels.bridges):
        assert (ours is None and theirs is None) or \
            np.array_equal(ours, theirs)
    for _ in range(50):
        lo, hi = sorted(rng.integers(0, n + 1, size=2))
        t = int(rng.integers(-2, n + 2))
        assert loaded.count_below(lo, hi, t) == tree.count_below(lo, hi, t)


def test_roundtrip_select(tmp_path, rng):
    n = 120
    perm = rng.permutation(n)
    tree = MergeSortTree(perm, fanout=2)
    path = tmp_path / "perm.npz"
    save_tree(tree, path)
    loaded = load_tree(path)
    for _ in range(30):
        a, b = sorted(rng.integers(0, n + 1, size=2))
        if a == b:
            continue
        k = int(rng.integers(0, b - a))
        assert loaded.select(k, [(int(a), int(b))]) == \
            tree.select(k, [(int(a), int(b))])


def test_roundtrip_numpy_aggregate(tmp_path, rng):
    n = 100
    keys = rng.integers(0, n, size=n)
    payload = rng.normal(size=n)
    tree = MergeSortTree(keys, fanout=2, aggregate=SUM, payload=payload)
    path = tmp_path / "agg.npz"
    save_tree(tree, path)
    loaded = load_tree(path)
    loaded.aggregate_spec = SUM
    for lo, hi, t in [(0, n, n), (10, 60, 30), (5, 5, 1)]:
        assert loaded.aggregate([(lo, hi)], t) == \
            tree.aggregate([(lo, hi)], t)


@pytest.mark.parametrize("spec", [SUM, MIN, MAX], ids=["sum", "min", "max"])
@pytest.mark.parametrize("fanout,sample_every", [(2, 1), (4, 8)])
def test_roundtrip_prefix_aggregates_exact(tmp_path, rng, spec, fanout,
                                           sample_every):
    """Per-position prefix-aggregate annotations survive the round-trip
    bit-for-bit, across fanouts and sampling rates (the cache's spill
    path depends on exactly this)."""
    n = 257  # deliberately not a power of the fanout
    keys = rng.integers(-1, n, size=n)
    payload = rng.normal(size=n)
    tree = MergeSortTree(keys, fanout=fanout, sample_every=sample_every,
                         aggregate=spec, payload=payload)
    path = tmp_path / f"{spec.name}.npz"
    save_tree(tree, path)
    loaded = load_tree(path)
    assert loaded.aggregate_spec is None  # caller re-attaches
    loaded.aggregate_spec = spec
    assert len(loaded.levels.agg_prefix) == len(tree.levels.agg_prefix)
    for ours, theirs in zip(loaded.levels.agg_prefix,
                            tree.levels.agg_prefix):
        np.testing.assert_array_equal(ours, theirs)
    for _ in range(40):
        lo, hi = sorted(rng.integers(0, n + 1, size=2))
        t = int(rng.integers(-2, n + 2))
        assert loaded.aggregate([(int(lo), int(hi))], t) == \
            tree.aggregate([(int(lo), int(hi))], t)


def test_roundtrip_prefix_aggregates_batched(tmp_path, rng):
    """The vectorised probe kernels read reloaded annotations too."""
    n = 400
    keys = rng.integers(0, 50, size=n)
    payload = rng.normal(size=n)
    tree = MergeSortTree(keys, fanout=2, aggregate=SUM, payload=payload)
    path = tmp_path / "batched.npz"
    save_tree(tree, path)
    loaded = load_tree(path)
    loaded.aggregate_spec = SUM
    lo = rng.integers(0, n // 2, size=64)
    hi = lo + rng.integers(0, n // 2, size=64)
    key_hi = rng.integers(0, 50, size=64)
    np.testing.assert_allclose(
        batched_aggregate(loaded.levels, lo, hi, key_hi, kind="sum"),
        batched_aggregate(tree.levels, lo, hi, key_hi, kind="sum"))
    np.testing.assert_array_equal(
        batched_count(loaded.levels, lo, hi, key_hi),
        batched_count(tree.levels, lo, hi, key_hi))


def test_roundtrip_prefix_aggregates_tiny(tmp_path):
    """Degenerate shapes: single element and two equal keys."""
    for keys, payload in ([0], [1.5]), ([3, 3], [2.0, 4.0]):
        tree = MergeSortTree(np.asarray(keys), fanout=2, aggregate=SUM,
                             payload=np.asarray(payload))
        path = tmp_path / f"tiny_{len(keys)}.npz"
        save_tree(tree, path)
        loaded = load_tree(path)
        loaded.aggregate_spec = SUM
        n = len(keys)
        assert loaded.aggregate([(0, n)], 10) == tree.aggregate([(0, n)], 10)


def test_generic_annotations_rejected(tmp_path, rng):
    keys = rng.integers(0, 10, size=20)
    tree = MergeSortTree(keys, aggregate=AVG,
                         payload=[float(i) for i in range(20)])
    with pytest.raises(ValueError):
        save_tree(tree, tmp_path / "nope.npz")


def test_bundle_without_bridges_rejected(tmp_path, rng):
    """Every tree queries through its bridges, so a bundle whose header
    says it has none (the format's bridge-less mode) does not load."""
    tree = MergeSortTree(rng.integers(0, 40, size=64), fanout=2)
    path = tmp_path / "plain.npz"
    save_tree(tree, path)
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files
                  if not k.startswith(("anchors_", "bridge_"))}
    arrays["__meta__"] = arrays["__meta__"].copy()
    arrays["__meta__"][3] = 0
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="bridges"):
        load_tree(path)


def test_version_check(tmp_path, rng):
    tree = MergeSortTree(rng.integers(0, 5, size=10))
    path = tmp_path / "v.npz"
    save_tree(tree, path)
    # corrupt the version header
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    arrays["__meta__"] = arrays["__meta__"].copy()
    arrays["__meta__"][0] = 99
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError):
        load_tree(path)
