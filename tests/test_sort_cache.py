"""The sort of a window input as a cached, content-keyed artifact.

A window group's sort (permutation, partition ids, peer-group ids) and
every structure over it are keyed by the content fingerprints of the
columns they read — by role, never by the hidden column names the SQL
layer gives window inputs — so:

* a warm statement over catalog columns re-sorts nothing and hashes
  nothing (catalog columns keep their memoised fingerprint through the
  plan), and two statements that read the same data in the same order
  share structures whatever else they compute;
* changed data never reuses an old entry, and filtered or derived
  inputs are still fingerprinted on every query.

Also the INT64 DESC regression: the normalised key complements instead
of negating, so ``-2**63`` sorts last under DESC.
"""

from types import SimpleNamespace

import pytest

import repro.cache.fingerprint as fingerprint
from repro.sql import Catalog, Session
from repro.table import DataType, Table
from repro.tpch import lineitem

W = "ORDER BY l_shipdate ROWS BETWEEN 99 PRECEDING AND CURRENT ROW"
MEDIAN = "percentile_disc(0.5) WITHIN GROUP (ORDER BY l_extendedprice)"
WIN_SMALL = (f"SELECT l_orderkey, count(DISTINCT l_partkey) OVER w AS d, "
             f"{MEDIAN} OVER w AS m FROM lineitem WINDOW w AS ({W}) "
             "LIMIT 100")
WIN_LARGE = (f"SELECT l_orderkey, count(DISTINCT l_partkey) OVER ({W}) AS d "
             "FROM lineitem")
#: Statements shaped like the benchmark's set W, over catalog columns.
WARM_STATEMENTS = [
    f"SELECT count(DISTINCT l_partkey) OVER ({W}) AS v FROM lineitem",
    f"SELECT {MEDIAN} OVER ({W}) AS v FROM lineitem",
    f"SELECT rank(ORDER BY l_extendedprice) OVER ({W}) AS v FROM lineitem",
    f"SELECT dense_rank(ORDER BY l_quantity) OVER ({W}) AS v "
    "FROM lineitem",
    f"SELECT count(DISTINCT l_partkey) OVER w AS d, {MEDIAN} OVER w AS m "
    "FROM lineitem WINDOW w AS (PARTITION BY l_suppkey ORDER BY "
    "l_shipdate ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)",
    "SELECT count(DISTINCT l_partkey) OVER (ORDER BY l_shipdate RANGE "
    "BETWEEN 30 PRECEDING AND CURRENT ROW) AS v FROM lineitem",
]


def _rows(result):
    return result.table.to_rows()


@pytest.fixture
def hash_updates(monkeypatch):
    """Counts the blake2b updates column fingerprints make."""
    real = fingerprint.hashlib
    count = [0]

    class Counting:
        def __init__(self, *args, **kwargs):
            self._digest = real.blake2b(*args, **kwargs)

        def update(self, data):
            count[0] += 1
            self._digest.update(data)

        def hexdigest(self):
            return self._digest.hexdigest()

    monkeypatch.setattr(fingerprint, "hashlib",
                        SimpleNamespace(blake2b=Counting))
    return count


# ----------------------------------------------------------------------
# INT64 DESC
# ----------------------------------------------------------------------
EXTREMES = Table.from_dict({
    "x": (DataType.INT64, [5, -2 ** 63, 7, 2 ** 63 - 1]),
})


def test_sql_order_by_desc_keeps_int64_extremes_in_order():
    with Session(Catalog({"t": EXTREMES})) as session:
        rows = _rows(session.execute("SELECT x FROM t ORDER BY x DESC"))
    assert [x for x, in rows] == [2 ** 63 - 1, 7, 5, -2 ** 63]


def test_window_order_by_desc_keeps_int64_extremes_in_order():
    with Session(Catalog({"t": EXTREMES})) as session:
        rows = _rows(session.execute(
            "SELECT x, row_number() OVER (ORDER BY x DESC) AS r FROM t"))
    assert dict(rows) == {2 ** 63 - 1: 1, 7: 2, 5: 3, -2 ** 63: 4}


# ----------------------------------------------------------------------
# structure keys by content and role
# ----------------------------------------------------------------------
def test_win_large_reuses_the_tree_win_small_built():
    catalog = Catalog({"lineitem": lineitem(3000)})
    with Session(catalog) as session:
        session.execute(WIN_SMALL)
        large = session.execute(WIN_LARGE)
    assert large.stats.structure_builds == 0
    assert large.stats.structure_reuses == 2  # the sort and the tree
    with Session(catalog) as fresh:
        assert _rows(large) == _rows(fresh.execute(WIN_LARGE))


def test_swapping_two_calls_rebuilds_nothing():
    catalog = Catalog({"lineitem": lineitem(3000)})
    first = (f"SELECT count(DISTINCT l_partkey) OVER ({W}) AS a, "
             f"{MEDIAN} OVER ({W}) AS b FROM lineitem")
    swapped = (f"SELECT {MEDIAN} OVER ({W}) AS b, "
               f"count(DISTINCT l_partkey) OVER ({W}) AS a FROM lineitem")
    with Session(catalog) as session:
        session.execute(first)
        entries = session.cache_stats().entries
        again = session.execute(swapped)
        assert session.cache_stats().entries == entries == 3
    assert again.stats.structure_builds == 0
    assert again.stats.structure_reuses == 3


# ----------------------------------------------------------------------
# fingerprints: kept for catalog columns, recomputed for derived ones
# ----------------------------------------------------------------------
def test_warm_statements_over_catalog_columns_hash_nothing(hash_updates):
    with Session(Catalog({"lineitem": lineitem(3000)})) as session:
        cold = [session.execute(sql) for sql in WARM_STATEMENTS]
        assert hash_updates[0] > 0  # the cold pass hashed each column once
        hash_updates[0] = 0
        for sql, before in zip(WARM_STATEMENTS, cold):
            warm = session.execute(sql)
            assert warm.stats.structure_builds == 0, sql
            assert warm.stats.structure_reuses > 0, sql
            assert _rows(warm) == _rows(before), sql
    assert hash_updates[0] == 0


@pytest.mark.parametrize("sql", [
    f"SELECT count(DISTINCT l_partkey) OVER ({W}) AS v FROM lineitem "
    "WHERE l_quantity > 10",
    f"SELECT count(DISTINCT l_quantity * 2) OVER ({W}) AS v "
    "FROM lineitem",
])
def test_filtered_and_derived_inputs_are_fingerprinted_per_query(
        sql, hash_updates):
    with Session(Catalog({"lineitem": lineitem(3000)})) as session:
        cold = session.execute(sql)
        hash_updates[0] = 0
        warm = session.execute(sql)
    # Fresh vectors, hashed again — and equal content finds the entries.
    assert hash_updates[0] > 0
    assert warm.stats.structure_builds == 0
    assert _rows(warm) == _rows(cold)


def test_reregistered_table_never_reuses_the_old_sort():
    sql = f"SELECT count(DISTINCT l_partkey) OVER ({W}) AS v FROM lineitem"
    changed = lineitem(3000, seed=2)
    with Session(Catalog({"lineitem": lineitem(3000)})) as session:
        session.execute(sql)
        session.register_table("lineitem", changed)
        after = session.execute(sql)
    assert after.stats.structure_reuses == 0
    assert after.stats.structure_builds == 2  # the sort and the tree
    with Session(Catalog({"lineitem": changed})) as fresh:
        assert _rows(after) == _rows(fresh.execute(sql))


def test_appended_rows_change_the_sort_key():
    table = lineitem(500)
    sql = f"SELECT count(DISTINCT l_partkey) OVER ({W}) AS v FROM lineitem"
    with Session(Catalog({"lineitem": table})) as session:
        session.execute(sql)
        table.append_rows([table.row(0)])
        after = session.execute(sql)
    assert after.stats.structure_reuses == 0
    assert after.num_rows == 501


# ----------------------------------------------------------------------
# results own their columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sql", [
    f"SELECT l_orderkey, l_partkey, count(DISTINCT l_partkey) OVER ({W}) "
    "AS d FROM lineitem",
    "SELECT l_orderkey, l_partkey FROM lineitem",
])
def test_results_and_the_catalog_never_share_columns(sql):
    table = lineitem(300)
    with Session(Catalog({"lineitem": table})) as session:
        result = session.execute(sql)
        before = _rows(result)
        catalog_before = table.to_rows()
        # Appending to the catalog leaves a returned result as it was.
        table.append_rows([table.row(0)])
        assert _rows(result) == before
        assert {len(column) for column in result.table.columns} == {300}
        # Appending to a result leaves the catalog as it was.
        result.table.append_row(result.table.row(0))
        assert table.to_rows() == catalog_before + [catalog_before[0]]
        assert {len(column) for column in table.columns} == {301}
