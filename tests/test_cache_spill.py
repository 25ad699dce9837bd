"""Spill/reload round-trips for evicted cache entries."""

import os

import numpy as np

from repro.cache.spill import SpillManager, can_spill
from repro.cache.store import StructureCache
from repro.mst.aggregates import MAX, SUM
from repro.mst.tree import MergeSortTree
from repro.segtree.tree import SegmentTree


def _annotated_tree(n, seed=0, spec=SUM, fanout=2):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n)
    payload = rng.normal(size=n)
    return MergeSortTree(keys, fanout=fanout, aggregate=spec,
                         payload=payload)


# ----------------------------------------------------------------------
# can_spill
# ----------------------------------------------------------------------
def test_can_spill_plain_and_annotated_trees(rng):
    assert can_spill(MergeSortTree(rng.permutation(64), fanout=2))
    assert can_spill(_annotated_tree(64))


def test_can_spill_rejects_non_trees(rng):
    assert not can_spill(SegmentTree(rng.normal(size=64), kind="sum"))
    assert not can_spill(object())
    assert not can_spill(None)


def test_can_spill_rejects_object_prefix_trees(rng):
    # A UDAF-style spec with no numpy kernel yields list agg_prefix
    # levels, which the .npz format cannot represent.
    from repro.mst.aggregates import AggregateSpec
    spec = AggregateSpec("pysum", 0, lambda v: v, lambda a, b: a + b,
                         lambda a: a)
    keys = rng.permutation(64)
    tree = MergeSortTree(keys, fanout=2, aggregate=spec,
                         payload=[float(v) for v in keys])
    assert not can_spill(tree)


# ----------------------------------------------------------------------
# SpillManager
# ----------------------------------------------------------------------
def test_spill_roundtrip_exact(rng, tmp_path):
    manager = SpillManager(str(tmp_path))
    tree = _annotated_tree(257, seed=3, spec=SUM, fanout=4)
    path, meta = manager.spill(tree)
    assert os.path.exists(path)
    assert manager.bytes_written == os.path.getsize(path)
    assert meta is SUM

    loaded = manager.load(path, meta)
    assert loaded.aggregate_spec is SUM
    for original, restored in zip(tree.levels.keys, loaded.levels.keys):
        assert np.array_equal(original, restored)
    for original, restored in zip(tree.levels.agg_prefix,
                                  loaded.levels.agg_prefix):
        assert np.array_equal(original, restored)
    # Reloaded trees answer aggregate queries identically.
    for _ in range(20):
        lo = int(rng.integers(0, 200))
        hi = int(rng.integers(lo + 1, 258))
        thr = int(rng.integers(0, 257))
        assert tree.aggregate([(lo, hi)], thr) == \
            loaded.aggregate([(lo, hi)], thr)


def test_spill_roundtrip_max_spec(rng, tmp_path):
    manager = SpillManager(str(tmp_path))
    tree = _annotated_tree(100, seed=9, spec=MAX)
    path, meta = manager.spill(tree)
    loaded = manager.load(path, meta)
    assert tree.aggregate([(0, 100)], 50) == loaded.aggregate([(0, 100)],
                                                              50)


def test_spill_rejects_unspillable(rng, tmp_path):
    manager = SpillManager(str(tmp_path))
    import pytest
    with pytest.raises(ValueError):
        manager.spill(SegmentTree(rng.normal(size=16), kind="sum"))


def test_spill_discard_removes_file(tmp_path):
    manager = SpillManager(str(tmp_path))
    path, _ = manager.spill(_annotated_tree(32))
    manager.discard(path)
    assert not os.path.exists(path)
    manager.discard(path)  # idempotent


def test_owned_tempdir_removed_on_close():
    manager = SpillManager()  # no directory: lazily owns a tempdir
    path, _ = manager.spill(_annotated_tree(32))
    directory = manager.directory
    assert os.path.isdir(directory)
    manager.close()
    assert not os.path.isdir(directory)


def test_provided_directory_survives_close(tmp_path):
    manager = SpillManager(str(tmp_path))
    manager.spill(_annotated_tree(32))
    manager.close()
    assert os.path.isdir(str(tmp_path))


# ----------------------------------------------------------------------
# eviction through the cache
# ----------------------------------------------------------------------
def test_evict_spill_reload_identical_results(rng, tmp_path):
    queries = [(int(a), int(a) + 1 + int(b), int(t))
               for a, b, t in zip(rng.integers(0, 100, 30),
                                  rng.integers(1, 150, 30),
                                  rng.integers(0, 256, 30))]
    queries = [(lo, min(hi, 256), thr) for lo, hi, thr in queries]

    def builder():
        return _annotated_tree(256, seed=5)

    baseline = [builder().aggregate([(lo, hi)], thr)
                for lo, hi, thr in queries]

    with StructureCache(budget_bytes=0, spill_dir=str(tmp_path)) as cache:
        tree = cache.acquire(("t",), builder)
        cache.release(("t",))  # unpinned + zero budget -> spilled out
        stats = cache.stats()
        assert stats.evictions == 1 and stats.spills == 1
        assert stats.spilled_entries == 1
        assert ("t",) in cache  # the slot survives the spill
        assert stats.bytes_in_use < tree.levels.keys[0].nbytes

        reloaded = cache.acquire(("t",), builder, pin=False)
        stats = cache.stats()
        assert stats.reloads == 1 and stats.hits == 1
        assert stats.misses == 1  # never rebuilt
        answers = [reloaded.aggregate([(lo, hi)], thr)
                   for lo, hi, thr in queries]
        assert answers == baseline


def test_spill_disabled_drops_and_rebuilds(tmp_path):
    builds = []

    def builder():
        builds.append(1)
        return _annotated_tree(128, seed=6)

    with StructureCache(budget_bytes=0, spill_dir=str(tmp_path),
                        spill=False) as cache:
        cache.acquire(("t",), builder, pin=False)
        assert ("t",) not in cache  # dropped, not spilled
        assert cache.stats().spills == 0
        assert os.listdir(str(tmp_path)) == []
        cache.acquire(("t",), builder, pin=False)
        assert len(builds) == 2
        assert cache.stats().misses == 2


def test_unspillable_structures_dropped_even_with_spill_on(rng, tmp_path):
    values = rng.normal(size=128)
    with StructureCache(budget_bytes=0, spill_dir=str(tmp_path)) as cache:
        cache.acquire(("seg",), lambda: SegmentTree(values, kind="sum"),
                      pin=False)
        assert ("seg",) not in cache
        stats = cache.stats()
        assert stats.evictions == 1 and stats.spills == 0


def test_close_cleans_spill_files(tmp_path):
    cache = StructureCache(budget_bytes=0, spill_dir=str(tmp_path))
    cache.acquire(("t",), lambda: _annotated_tree(64), pin=False)
    assert len(os.listdir(str(tmp_path))) == 1
    cache.close()
    assert os.listdir(str(tmp_path)) == []


# ----------------------------------------------------------------------
# orphan sweep vs concurrent live sessions sharing one directory
# ----------------------------------------------------------------------
def _dead_pid():
    """A pid guaranteed not to be running: spawn-and-reap a child."""
    import subprocess
    import sys
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_sweep_skips_live_pids_removes_dead_and_legacy(tmp_path):
    from repro.cache.spill import sweep_orphans
    live = tmp_path / f"repro-spill-p{os.getpid()}-deadbeef.npz"
    dead = tmp_path / f"repro-spill-p{_dead_pid()}-cafe.npz"
    legacy = tmp_path / "repro-spill-0123456789abcdef.npz"
    unrelated = tmp_path / "user-data.npz"
    for path in (live, dead, legacy, unrelated):
        path.write_bytes(b"x")
    assert sweep_orphans(str(tmp_path)) == 2
    assert live.exists()        # owner process (us) is alive
    assert not dead.exists()    # owner exited: orphan
    assert not legacy.exists()  # pre-pid-tag name: unclaimable
    assert unrelated.exists()   # never touch foreign files


def test_startup_sweep_spares_concurrent_sessions_files(tmp_path):
    """Two managers share a spill dir: the second one's startup sweep
    must not delete the first one's live spill files (both owned by
    this very-much-alive process), while a dead session's leftovers
    still get cleaned."""
    first = SpillManager(str(tmp_path))
    path, meta = first.spill(_annotated_tree(64, seed=9))
    stale = tmp_path / f"repro-spill-p{_dead_pid()}-feed.npz"
    stale.write_bytes(b"x")

    second = SpillManager(str(tmp_path))
    second.directory  # touching the property runs the startup sweep
    assert second.orphans_swept == 1
    assert not stale.exists()
    assert os.path.exists(path)

    # The first session's entry is fully intact after the sweep.
    reloaded = first.load(path, meta)
    original = _annotated_tree(64, seed=9)
    assert reloaded.count_below(0, 64, 32) == \
        original.count_below(0, 64, 32)


def test_two_sessions_spill_trees_side_by_side(tmp_path):
    """Tree spills from concurrent managers in one directory never
    collide, and each manager reloads its own tree."""
    a = SpillManager(str(tmp_path))
    b = SpillManager(str(tmp_path))
    tree_a = _annotated_tree(64, seed=1)
    tree_b = _annotated_tree(32, seed=2, spec=MAX)
    pa, meta_a = a.spill(tree_a)
    pb, meta_b = b.spill(tree_b)
    assert pa != pb
    for manager, path, meta, tree in ((a, pa, meta_a, tree_a),
                                      (b, pb, meta_b, tree_b)):
        loaded = manager.load(path, meta)
        assert loaded.aggregate_spec is tree.aggregate_spec
        assert len(loaded.levels.keys) == len(tree.levels.keys)
        for got, want in zip(loaded.levels.keys + loaded.levels.agg_prefix,
                             tree.levels.keys + tree.levels.agg_prefix):
            assert np.array_equal(got, want)
