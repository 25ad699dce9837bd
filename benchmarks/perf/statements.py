"""The statement texts every workload runs, fixed here so that both
sides of a comparison execute the same SQL.

Each window statement carries, beside its text, the description the
brute-force oracle (:mod:`benchmarks.perf.oracle`) needs to recompute
it without the engine: the frame, and per output column the function
and its argument column.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: Frame shared by seven of the ten window statements.
_F = "ORDER BY l_shipdate ROWS BETWEEN 999 PRECEDING AND CURRENT ROW"
_MEDIAN = "percentile_disc(0.5) WITHIN GROUP (ORDER BY l_extendedprice)"


class Frame(NamedTuple):
    """ORDER BY l_shipdate with one of three frame shapes."""
    kind: str                      # "rows" | "nonmono" | "range"
    preceding: int = 0             # rows: k PRECEDING; range: k days
    partition_by: Optional[str] = None


class WindowStatement(NamedTuple):
    name: str
    sql: str
    frame: Frame
    #: output column -> (oracle function, argument column)
    outputs: Dict[str, Tuple[str, str]]


def _single(name: str, call: str, function: str, column: str,
            over: str = _F, frame: Frame = Frame("rows", 999)
            ) -> WindowStatement:
    return WindowStatement(
        name, f"SELECT {call} OVER ({over}) AS v FROM lineitem", frame,
        {"v": (function, column)})


#: Set W — the ten framed holistic statements of the window workloads.
WINDOW_STATEMENTS: Tuple[WindowStatement, ...] = (
    _single("distinct", "count(DISTINCT l_partkey)", "distinct",
            "l_partkey"),
    _single("median", _MEDIAN, "median", "l_extendedprice"),
    _single("sumdistinct", "sum(DISTINCT l_quantity)", "sumdistinct",
            "l_quantity"),
    _single("rank", "rank(ORDER BY l_extendedprice)", "rank",
            "l_extendedprice"),
    _single("dense_rank", "dense_rank(ORDER BY l_quantity)", "dense_rank",
            "l_quantity"),
    _single("nth", "nth_value(l_extendedprice, 5)", "nth5",
            "l_extendedprice"),
    _single("lead", "lead(l_extendedprice, 1 ORDER BY l_extendedprice)",
            "lead", "l_extendedprice"),
    _single("nonmono", _MEDIAN, "median", "l_extendedprice",
            over="ORDER BY l_shipdate ROWS BETWEEN l_quantity * 20 "
                 "PRECEDING AND l_suppkey % 50 FOLLOWING",
            frame=Frame("nonmono")),
    WindowStatement(
        "partitioned",
        f"SELECT count(DISTINCT l_partkey) OVER w AS d, {_MEDIAN} OVER w "
        "AS m FROM lineitem WINDOW w AS (PARTITION BY l_suppkey ORDER BY "
        "l_shipdate ROWS BETWEEN 99 PRECEDING AND CURRENT ROW)",
        Frame("rows", 99, partition_by="l_suppkey"),
        {"d": ("distinct", "l_partkey"), "m": ("median", "l_extendedprice")}),
    _single("range_distinct", "count(DISTINCT l_partkey)", "distinct",
            "l_partkey",
            over="ORDER BY l_shipdate RANGE BETWEEN 30 PRECEDING AND "
                 "CURRENT ROW",
            frame=Frame("range", 30)),
)

_SERVE_W = ("w AS (ORDER BY l_shipdate ROWS BETWEEN 499 PRECEDING AND "
            "CURRENT ROW)")

#: serve_mixed request classes; ``point`` and ``agg`` take one bound
#: parameter, so every request after the first is a plan-cache hit.
SERVE_CLASSES: Dict[str, str] = {
    "point": "SELECT l_orderkey, l_partkey, l_extendedprice FROM lineitem "
             "WHERE l_orderkey = $1",
    "agg": "SELECT l_quantity, sum(l_extendedprice), avg(l_extendedprice), "
           "count(*) FROM lineitem WHERE l_shipdate <= $1 "
           "GROUP BY l_quantity ORDER BY l_quantity",
    "win_small": f"SELECT l_orderkey, count(DISTINCT l_partkey) OVER w AS d, "
                 f"{_MEDIAN} OVER w AS m FROM lineitem WINDOW {_SERVE_W} "
                 "LIMIT 100",
    "win_large": "SELECT l_orderkey, count(DISTINCT l_partkey) OVER "
                 "(ORDER BY l_shipdate ROWS BETWEEN 499 PRECEDING AND "
                 "CURRENT ROW) AS d FROM lineitem",
}
#: Requests of each class in one pass of the sequence (4 : 3 : 2 : 1).
SERVE_MIX: Dict[str, int] = {"point": 20, "agg": 15, "win_small": 10,
                             "win_large": 5}
SERVE_ROWS = 20_000
#: What the oracle needs to recompute ``win_large`` from the table.
SERVE_WIN_LARGE = WindowStatement(
    "win_large", SERVE_CLASSES["win_large"], Frame("rows", 499),
    {"d": ("distinct", "l_partkey")})

WINDOW_ROWS = 60_000
TPCH_SCALE = 0.01
#: Small scale at which the join queries still have rows to return.
TPCH_SMOKE_SCALE = 0.002
#: Statement groups behind the per-layer sums of tpch_relational.
TPCH_JOIN_HEAVY = ("q5", "q7", "q8", "q9")
TPCH_SCAN_AGG = ("q1", "q6")
