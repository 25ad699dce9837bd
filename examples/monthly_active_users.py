"""Section 1's opening example: monthly-active users over time.

``count(distinct o_custkey)`` over a sliding one-month RANGE frame —
the framed distinct count SQL:2011 disallows. Demonstrates both the SQL
form and the algorithm comparison: the merge sort tree, the incremental
(Wesley & Xu) and the naive contenders run as frame kernels over one
sorted, framed partition (``repro.bench.contenders``) and must agree on
every row.

Run with::

    python examples/monthly_active_users.py
"""

import time

from repro import (
    Catalog,
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    execute,
    preceding,
)
from repro.bench.contenders import kernel, partition
from repro.tpch import orders
from repro.window.frame import OrderItem

MAU_QUERY = """
select o_orderdate, count(distinct o_custkey) over w as active_users
from orders
window w as (order by o_orderdate
             range between interval '1 month' preceding and current row)
order by o_orderdate
"""


def main() -> None:
    table = orders(10_000)
    catalog = Catalog({"orders": table})

    result = execute(MAU_QUERY, catalog)
    print("Monthly-active users (30-day sliding window):")
    print(result.head(8).pretty())
    mau = result.column("active_users").to_list()
    print(f"\npeak MAU: {max(mau)}, minimum: {min(mau)}")

    # The same computation on every algorithm the paper evaluates for
    # distinct counts, each over the one sorted, framed partition.
    part = partition(table, WindowSpec(
        order_by=(OrderItem("o_orderdate"),),
        frame=FrameSpec.range(preceding(30), current_row())))
    call = WindowCall("count", ("o_custkey",), distinct=True)
    reference = None
    for algorithm in ["mst", "incremental", "naive"]:
        run = kernel(call, algorithm)
        start = time.perf_counter()
        out = run(part)
        elapsed = time.perf_counter() - start
        print(f"{algorithm:12s}: {elapsed * 1000:8.1f} ms")
        if reference is None:
            reference = out
        else:
            assert out == reference, f"{algorithm} disagrees with mst"
    print("all algorithms agree on every row")


if __name__ == "__main__":
    main()
