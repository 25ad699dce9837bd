"""Frame offsets and NTILE bucket counts up to 2^63 - 1 saturate.

A ROWS or GROUPS offset is clamped to the partition size before it is
added to a position, and NTILE's bucket count to the frame size before
it multiplies a row number, so neither can wrap in int64. Each answer is
pinned and checked against stdlib ``sqlite3``. sqlite3 runs under a
progress handler because some releases never return on a frame such as
``ROWS BETWEEN 1 FOLLOWING AND 2^62 FOLLOWING``.
"""

import sqlite3

import pytest

from repro import Catalog, Session
from repro.table import DataType, Table
from repro.window.calls import WindowCall
from repro.window.frame import OrderItem, WindowSpec
from repro.window.operator import window_query

BIG = 2 ** 63 - 1

CASES = [
    (f"sum(x) OVER (ORDER BY x ROWS BETWEEN CURRENT ROW AND {BIG} "
     f"FOLLOWING)", [15, 14, 12, 9, 5]),
    (f"count(x) OVER (ORDER BY x ROWS BETWEEN {BIG} PRECEDING AND {BIG} "
     f"FOLLOWING)", [5, 5, 5, 5, 5]),
    (f"sum(x) OVER (ORDER BY x GROUPS BETWEEN CURRENT ROW AND {BIG} "
     f"FOLLOWING)", [15, 14, 12, 9, 5]),
    (f"ntile({BIG}) OVER (ORDER BY x)", [1, 2, 3, 4, 5]),
    (f"ntile({2 ** 62}) OVER (ORDER BY x)", [1, 2, 3, 4, 5]),
    (f"lead(x, {BIG}) OVER (ORDER BY x)", [None] * 5),
    (f"nth_value(x, {BIG}) OVER (ORDER BY x)", [None] * 5),
]


def _sqlite(expr):
    """``expr`` over x = 1..5 in sqlite3, aborted after a bounded number
    of virtual-machine steps."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?)",
                         [(x,) for x in range(1, 6)])
        steps = [0]

        def abort_when_stuck():
            steps[0] += 1
            return steps[0] > 10_000

        conn.set_progress_handler(abort_when_stuck, 100)
        return [row[0] for row in conn.execute(
            f"SELECT {expr} FROM t ORDER BY x")]
    finally:
        conn.close()


@pytest.fixture(scope="module")
def session():
    table = Table.from_dict({"x": (DataType.INT64, [1, 2, 3, 4, 5])})
    with Session(Catalog({"t": table})) as session:
        yield session


@pytest.mark.parametrize("expr, expected", CASES)
def test_matches_sqlite(session, expr, expected):
    got = session.execute(f"SELECT {expr} AS v FROM t ORDER BY x")
    assert got.column("v").to_list() == expected
    assert _sqlite(expr) == expected


@pytest.mark.parametrize("algorithm", ["mst", "naive"])
@pytest.mark.parametrize("buckets", [5, 6, 2 ** 62, BIG])
def test_ntile_with_at_least_one_bucket_per_row(algorithm, buckets):
    table = Table.from_dict({"x": (DataType.INT64, [1, 2, 3, 4, 5])})
    call = WindowCall("ntile", buckets=buckets, output="v",
                      algorithm=algorithm)
    spec = WindowSpec(order_by=(OrderItem("x"),))
    out = window_query(table, [call], spec)
    assert out.column("v").to_list() == [1, 2, 3, 4, 5]
