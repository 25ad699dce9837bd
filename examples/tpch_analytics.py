"""Window analytics over the full TPC-H schema.

The relational frontend ties the paper's window machinery to real
multi-table inputs: this example joins four TPC-H tables through a CTE,
then runs three window functions over the result using *named* WINDOW
clauses — two of which share a partition/order pair, so the engine
sorts once and reuses the partitioned layout (the ``[shared sort]``
marker in EXPLAIN).

Also shows the prepared-statement API: the same analytics text with a
``:nation`` placeholder, parsed once and executed per nation off the
plan cache.

Run with::

    python examples/tpch_analytics.py
"""

from repro.sql import Session
from repro.tpch import tpch_catalog

ANALYTICS = """
WITH monthly AS (
  SELECT n.n_name AS nation, o.o_orderdate AS order_date,
         l.l_extendedprice * (1 - l.l_discount) AS revenue
  FROM lineitem AS l
  JOIN orders AS o ON l.l_orderkey = o.o_orderkey
  JOIN customer AS c ON o.o_custkey = c.c_custkey
  JOIN nation AS n ON c.c_nationkey = n.n_nationkey)
SELECT nation, order_date,
       sum(revenue) OVER cumulative AS revenue_to_date,
       avg(revenue) OVER trailing_q AS trailing_avg,
       rank() OVER by_size AS size_rank
FROM monthly
WINDOW cumulative AS (PARTITION BY nation ORDER BY order_date
                      ROWS BETWEEN UNBOUNDED PRECEDING
                      AND CURRENT ROW),
       trailing_q AS (PARTITION BY nation ORDER BY order_date
                      RANGE BETWEEN interval '3 month' PRECEDING
                      AND CURRENT ROW),
       by_size AS (PARTITION BY nation ORDER BY revenue DESC)
ORDER BY nation, order_date
LIMIT 8
"""

PER_NATION = """
SELECT o.o_orderdate,
       sum(l.l_extendedprice * (1 - l.l_discount))
         OVER (ORDER BY o.o_orderdate
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
         AS revenue_to_date
FROM lineitem AS l
JOIN orders AS o ON l.l_orderkey = o.o_orderkey
JOIN customer AS c ON o.o_custkey = c.c_custkey
JOIN nation AS n ON c.c_nationkey = n.n_nationkey
WHERE n.n_name = :nation
ORDER BY o.o_orderdate DESC
LIMIT 3
"""


def main() -> None:
    session = Session(tpch_catalog(scale_factor=0.002))
    print("plan (note HashJoin nodes and the shared-sort marker):")
    print(session.explain(ANALYTICS))
    print()
    result = session.execute(ANALYTICS)
    print("nation          date         to-date        trailing  rank")
    for nation, day, to_date, trailing, rank in result.to_rows():
        print(f"{nation:<15} {day}  {to_date:>12.2f} "
              f"{trailing:>14.2f}  {rank:>4}")

    print()
    stmt = session.prepare(PER_NATION)
    for nation in ("FRANCE", "GERMANY", "JAPAN"):
        rows = stmt.execute({"nation": nation}).to_rows()
        latest = ", ".join(f"{d}: {v:,.0f}" for d, v in rows)
        print(f"{nation:<10} latest cumulative revenue  {latest}")
    stats = session.plan_cache.stats()
    print(f"plan cache: hits={stats.hits} misses={stats.misses}")
    session.close()


if __name__ == "__main__":
    main()
