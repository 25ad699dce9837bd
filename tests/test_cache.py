"""Unit tests for the structure cache: fingerprints, ledger, store."""

import threading

import numpy as np
import pytest

from conftest import make_window_table
from repro.cache.budget import (
    StructureSizeBreakdown,
    structure_breakdown,
    structure_bytes,
)
from repro.cache.fingerprint import (
    column_fingerprint,
    table_fingerprint,
    window_group_key,
)
from repro.cache.store import StructureAcquirer, StructureCache
from repro.mst.aggregates import SUM
from repro.mst.tree import MergeSortTree
from repro.resilience.memory import MemoryGovernor
from repro.segtree.tree import SegmentTree
from repro.table import Column, DataType, Table
from repro.window.frame import (
    FrameSpec,
    OrderItem,
    WindowSpec,
    current_row,
    preceding,
)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_column_fingerprint_deterministic():
    a = Column(DataType.INT64, [1, 2, None, 4])
    b = Column(DataType.INT64, [1, 2, None, 4])
    assert column_fingerprint(a) == column_fingerprint(b)


def test_column_fingerprint_sensitive_to_values():
    a = Column(DataType.INT64, [1, 2, 3])
    b = Column(DataType.INT64, [1, 2, 4])
    assert column_fingerprint(a) != column_fingerprint(b)


def test_column_fingerprint_sensitive_to_validity():
    a = Column(DataType.INT64, [1, 2, 3])
    b = Column(DataType.INT64, [1, 2, None])
    assert column_fingerprint(a) != column_fingerprint(b)


def test_column_fingerprint_sensitive_to_dtype():
    a = Column(DataType.INT64, [1, 2, 3])
    b = Column(DataType.FLOAT64, [1.0, 2.0, 3.0])
    assert column_fingerprint(a) != column_fingerprint(b)


def test_column_fingerprint_string_columns():
    a = Column(DataType.STRING, ["x", "y", None])
    b = Column(DataType.STRING, ["x", "y", None])
    c = Column(DataType.STRING, ["x", "z", None])
    assert column_fingerprint(a) == column_fingerprint(b)
    assert column_fingerprint(a) != column_fingerprint(c)


def test_column_fingerprint_memoised_and_refreshed_on_append():
    col = Column(DataType.INT64, [1, 2, 3])
    first = column_fingerprint(col)
    assert column_fingerprint(col) == first  # memo hit
    col.append(9)
    assert column_fingerprint(col) != first  # length change busts the memo


def test_table_fingerprint_ignores_unrelated_columns():
    table = make_window_table()
    fp = table_fingerprint(table, ["g", "o", "x"])
    # Swap out an *uninvolved* column: the restricted fingerprint holds.
    other = Table.from_dict({
        "g": (DataType.INT64, table.column("g").to_list()),
        "o": (DataType.INT64, table.column("o").to_list()),
        "x": (DataType.INT64, table.column("x").to_list()),
        "y": (DataType.FLOAT64, [0.0] * table.num_rows),
    }, name="t")
    assert table_fingerprint(other, ["g", "o", "x"]) == fp
    # But fingerprinting *all* columns sees the difference.
    assert table_fingerprint(other) != table_fingerprint(table)


def test_table_fingerprint_column_names_matter():
    a = Table.from_dict({"u": (DataType.INT64, [1, 2]),
                         "v": (DataType.INT64, [1, 2])})
    assert table_fingerprint(a, ["u"]) != table_fingerprint(a, ["v"])


def test_window_group_key_excludes_frame():
    table = make_window_table()
    small = WindowSpec(order_by=(OrderItem("o"),),
                       frame=FrameSpec.rows(preceding(5), current_row()))
    large = WindowSpec(order_by=(OrderItem("o"),),
                       frame=FrameSpec.rows(preceding(500), current_row()))
    assert window_group_key(table, small) == window_group_key(table, large)


def test_window_group_key_sees_ordering():
    table = make_window_table()
    asc = WindowSpec(order_by=(OrderItem("o"),))
    desc = WindowSpec(order_by=(OrderItem("o", descending=True),))
    nulls_first = WindowSpec(order_by=(OrderItem("o", nulls_last=False),))
    part = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),))
    keys = {window_group_key(table, spec)
            for spec in (asc, desc, nulls_first, part)}
    assert len(keys) == 4


def test_window_group_key_names_columns_by_content():
    # The same data under another name is the same key; other data
    # under the same name is not.
    table = make_window_table()
    renamed = Table.from_dict({
        "k": (DataType.INT64, table.column("o").to_list()),
    })
    assert window_group_key(table, WindowSpec(order_by=(OrderItem("o"),))) \
        == window_group_key(renamed, WindowSpec(order_by=(OrderItem("k"),)))
    changed = Table.from_dict({
        "o": (DataType.INT64, [0] * table.num_rows),
    })
    spec = WindowSpec(order_by=(OrderItem("o"),))
    assert window_group_key(table, spec) != window_group_key(changed, spec)


def test_window_group_key_stable_across_equal_tables():
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),))
    a = make_window_table(seed=7)
    b = make_window_table(seed=7)
    c = make_window_table(seed=8)
    assert window_group_key(a, spec) == window_group_key(b, spec)
    assert window_group_key(a, spec) != window_group_key(c, spec)


# ----------------------------------------------------------------------
# budget
# ----------------------------------------------------------------------
def test_memory_budget_accounting():
    # The cache keeps no byte counter: each entry is charged to the
    # ledger's structure_cache tag and released when it leaves.
    governor = MemoryGovernor()
    with StructureCache(governor) as cache:
        a = cache.acquire(("a",), _tree_builder(64, 1))
        b = cache.acquire(("b",), _tree_builder(64, 2))
        both = structure_bytes(a) + structure_bytes(b)
        assert governor.held("structure_cache") == both
        assert cache.stats().bytes_in_use == both
        governor.budget = both - 1  # over budget, but both are pinned
        cache.release(("a",))       # "a" is evictable now
        assert ("a",) not in cache
        assert governor.held("structure_cache") == structure_bytes(b)
        assert cache.stats().bytes_in_use == structure_bytes(b)
        assert not governor.over_budget
    assert governor.held("structure_cache") == 0


def test_memory_budget_unlimited():
    # Without a governor the cache builds an unlimited one: it never
    # evicts.
    with StructureCache() as cache:
        for seed in range(4):
            cache.acquire((seed,), _tree_builder(256, seed), pin=False)
        stats = cache.stats()
        assert stats.entries == 4 and stats.evictions == 0
        assert stats.bytes_in_use > 0


def test_memory_budget_rejects_negative():
    with pytest.raises(ValueError):
        MemoryGovernor(-1)


def test_structure_breakdown_mst_components(rng):
    keys = rng.permutation(512)
    plain = MergeSortTree(keys, fanout=2)
    annotated = MergeSortTree(keys, fanout=2, aggregate=SUM,
                              payload=keys.astype(np.float64))
    b_plain = structure_breakdown(plain)
    b_annot = structure_breakdown(annotated)
    assert b_plain.levels > 0
    assert b_plain.pointers > 0  # cascading bridges
    assert b_plain.prefixes == 0
    assert b_annot.prefixes > 0
    assert b_annot.total > b_plain.total
    assert structure_bytes(annotated) == b_annot.total


def test_structure_breakdown_segment_tree(rng):
    tree = SegmentTree(rng.normal(size=256), kind="sum")
    breakdown = structure_breakdown(tree)
    assert breakdown.levels > 0 and breakdown.total == breakdown.levels


def test_structure_breakdown_addition():
    a = StructureSizeBreakdown(levels=1, pointers=2, prefixes=3, other=4)
    b = StructureSizeBreakdown(levels=10, pointers=20, prefixes=30,
                               other=40)
    total = a + b
    assert (total.levels, total.pointers, total.prefixes,
            total.other) == (11, 22, 33, 44)
    assert total.total == 110


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def _tree_builder(n, seed=0):
    keys = np.random.default_rng(seed).permutation(n)
    return lambda: MergeSortTree(keys, fanout=2)


def test_cache_builds_once_per_key():
    builds = []

    def builder():
        builds.append(1)
        return MergeSortTree(np.arange(64), fanout=2)

    with StructureCache() as cache:
        first = cache.acquire(("k",), builder)
        second = cache.acquire(("k",), builder)
        assert first is second
        assert len(builds) == 1
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.bytes_in_use > 0


def test_cache_distinct_keys_are_independent():
    with StructureCache() as cache:
        a = cache.acquire(("a",), _tree_builder(32, 1))
        b = cache.acquire(("b",), _tree_builder(32, 2))
        assert a is not b
        assert len(cache) == 2
        assert ("a",) in cache and ("c",) not in cache


def test_cache_lru_eviction_order():
    with StructureCache(MemoryGovernor(0)) as cache:
        # Budget 0: each release immediately evicts the LRU entry.
        cache.acquire(("a",), _tree_builder(64, 1))
        cache.acquire(("b",), _tree_builder(64, 2))
        # Both pinned: nothing evictable yet.
        assert len(cache) == 2
        cache.release(("a",))
        assert ("a",) not in cache and ("b",) in cache
        cache.release(("b",))
        assert len(cache) == 0
        assert cache.stats().evictions == 2
        assert cache.stats().bytes_in_use == 0


def test_cache_evicted_entry_rebuilds_as_a_miss():
    builds = []

    def builder():
        builds.append(1)
        return MergeSortTree(np.arange(64), fanout=2)

    with StructureCache(MemoryGovernor(0)) as cache:
        first = cache.acquire(("k",), builder, pin=False)
        assert ("k",) not in cache  # dropped, nothing kept anywhere
        second = cache.acquire(("k",), builder, pin=False)
        assert second is not first and len(builds) == 2
        stats = cache.stats()
        assert stats.misses == 2 and stats.hits == 0
        assert stats.evictions == 2 and stats.bytes_in_use == 0
        np.testing.assert_array_equal(second.levels.keys[-1],
                                      first.levels.keys[-1])


def test_cache_hit_refreshes_lru_position():
    governor = MemoryGovernor()
    with StructureCache(governor) as cache:
        cache.acquire(("a",), _tree_builder(64, 1), pin=False)
        cache.acquire(("b",), _tree_builder(64, 2), pin=False)
        cache.acquire(("a",), _tree_builder(64, 1), pin=False)  # refresh a
        # Shrink the budget below both trees: the true LRU ("b") must
        # go first. Force eviction through the internal hook.
        governor.budget = cache.stats().bytes_in_use - 1
        cache._evict_to_budget()
        assert ("a",) in cache and ("b",) not in cache


def test_cache_pinning_blocks_eviction():
    with StructureCache(MemoryGovernor(0)) as cache:
        cache.acquire(("pinned",), _tree_builder(64, 1))  # pin=True
        cache.acquire(("loose",), _tree_builder(64, 2), pin=False)
        assert ("pinned",) in cache
        assert ("loose",) not in cache  # evicted immediately
        cache.release(("pinned",))
        assert ("pinned",) not in cache


def test_cache_release_on_missing_key_is_noop():
    with StructureCache() as cache:
        cache.release(("never",))  # must not raise
        assert cache.stats().entries == 0


def test_cache_clear_drops_pinned_entries():
    with StructureCache() as cache:
        cache.acquire(("a",), _tree_builder(64, 1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().bytes_in_use == 0


def test_cache_stats_snapshot_is_detached():
    with StructureCache() as cache:
        cache.acquire(("a",), _tree_builder(64, 1))
        snapshot = cache.stats()
        cache.acquire(("a",), _tree_builder(64, 1))
        assert snapshot.hits == 0
        assert cache.stats().hits == 1


def test_cache_stats_render_lines():
    governor = MemoryGovernor(1 << 20)
    with StructureCache(governor) as cache:
        cache.acquire(("a",), _tree_builder(64, 1))
        lines = cache.stats().render()
        assert len(lines) == 2
        assert "hits=0 misses=1" in lines[0]
        # The budget is the ledger's; the cache reports its bytes.
        held = governor.held("structure_cache")
        assert lines[1].endswith(f"bytes={held:,}")


def test_cache_concurrent_acquire_builds_exactly_once():
    builds = []
    barrier = threading.Barrier(8)
    results = []

    def builder():
        builds.append(threading.get_ident())
        return MergeSortTree(np.arange(256), fanout=2)

    with StructureCache() as cache:
        def worker():
            barrier.wait()
            results.append(cache.acquire(("shared",), builder, pin=False))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(r is results[0] for r in results)
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 7


# ----------------------------------------------------------------------
# acquirer
# ----------------------------------------------------------------------
def test_acquirer_without_cache_calls_builder_every_time():
    builds = []
    acquirer = StructureAcquirer(None, ("prefix",), None)

    def builder():
        builds.append(1)
        return object()

    acquirer.acquire("kind", (), builder)
    acquirer.acquire("kind", (), builder)
    acquirer.release_all()  # no-op, must not raise
    assert len(builds) == 2


def test_acquirer_composes_keys_and_releases_pins():
    with StructureCache(MemoryGovernor(0)) as cache:
        acquirer = StructureAcquirer(cache, ("w", "fp", 0), None)
        acquirer.acquire("mst:perm", (("x",), None),
                         _tree_builder(64, 1))
        key = ("w", "fp", 0, "mst:perm", ("x",), None)
        assert key in cache
        # Pinned by the acquirer: survives a zero budget.
        assert len(cache) == 1
        acquirer.release_all()
        # Unpinned: the zero budget now evicts it.
        assert len(cache) == 0


def test_acquirer_same_kind_different_config_distinct_entries():
    with StructureCache() as cache:
        acquirer = StructureAcquirer(cache, ("w",), None)
        a = acquirer.acquire("mst:perm", (("x",),), _tree_builder(32, 1))
        b = acquirer.acquire("mst:perm", (("y",),), _tree_builder(32, 2))
        assert a is not b and len(cache) == 2
        acquirer.release_all()
