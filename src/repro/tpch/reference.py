"""A naive pure-Python reference for the TPC-H suite.

Every query in :mod:`repro.tpch.queries` is re-implemented here with
plain dict-rows and Python loops — no numpy, no shared code with the
executor — so ``tests/test_tpch_queries.py`` can assert the engine is
*bit-identical* to an independent evaluation, floats included.

Bit-identity only holds if the reference mirrors the engine's
evaluation order exactly, because IEEE float addition is not
associative. The contract (all of it implemented by the engine in
:mod:`repro.sql.executor`):

* **joins** emit, for each left row in scan order, its matching right
  rows in right-side scan order (the hash join's stable sort of the
  build keys keeps equal keys in scan order; the nested loop scans);
  ``LEFT JOIN`` emits one all-NULL right row when nothing matches;
* **grouping** keeps groups in first-seen order and rows within a
  group in relation order;
* **sum/avg** fold left to right over the group's values in row order,
  skipping NULLs: one IEEE addition per value, starting from 0,
  written out as a ``for`` loop (``avg`` is ``float(total) / count``).
  Not the builtin ``sum()``: from Python 3.12 it compensates float
  addition (Neumaier), so "left-to-right" would mean different bits
  on different interpreters;
* **ORDER BY** is a stable multi-key sort, ASC places NULLs last and
  DESC places them first.

Each ``ref_qN`` takes the :func:`repro.tpch.tables.tpch_tables` dict
and returns a list of row tuples shaped exactly like
``QueryResult.to_rows()`` for the corresponding statement.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.table.table import Table

__all__ = ["REFERENCE", "rows_of"]

Row = Dict[str, Any]


def rows_of(table: Table) -> List[Row]:
    """A Table as a list of plain dict rows (dates stay dates)."""
    names = [field.name for field in table.schema]
    return [dict(zip(names, row)) for row in table.rows()]


def hash_join(left: List[Row], right: List[Row],
              keys: Sequence[Tuple[str, str]], kind: str = "inner",
              residual: Optional[Callable[[Row], bool]] = None
              ) -> List[Row]:
    """Order-preserving hash join on equality key pairs.

    Emits, per left row in order, all matching right rows in right
    scan order — the engine's exact output order. NULL keys never
    match. ``residual`` filters the merged row (evaluated only on key
    matches, like the engine's residual predicate). ``kind='left'``
    keeps unmatched left rows with the right columns set to None.
    """
    table: Dict[Tuple, List[int]] = {}
    for i, row in enumerate(right):
        key = tuple(row[rk] for _, rk in keys)
        if any(v is None for v in key):
            continue
        table.setdefault(key, []).append(i)
    right_names = list(right[0].keys()) if right else []
    out: List[Row] = []
    for row in left:
        key = tuple(row[lk] for lk, _ in keys)
        matches = [] if any(v is None for v in key) \
            else table.get(key, [])
        emitted = False
        for i in matches:
            merged = {**row, **right[i]}
            if residual is not None and not residual(merged):
                continue
            out.append(merged)
            emitted = True
        if kind == "left" and not emitted:
            merged = dict(row)
            for name in right_names:
                merged[name] = None
            out.append(merged)
    return out


def group_rows(rows: List[Row],
               key: Callable[[Row], Tuple]) -> List[Tuple[Tuple,
                                                          List[Row]]]:
    """Groups in first-seen order, rows in input order."""
    groups: Dict[Tuple, List[Row]] = {}
    order: List[Tuple] = []
    for row in rows:
        k = key(row)
        if k not in groups:
            groups[k] = []
            order.append(k)
        groups[k].append(row)
    return [(k, groups[k]) for k in order]


def _fold(values: List[Any]) -> Tuple[Any, int]:
    """(left-to-right total, count) of the non-NULL values."""
    total: Any = 0
    count = 0
    for v in values:
        if v is not None:
            total = total + v
            count += 1
    return total, count


def agg_sum(values: List[Any]) -> Any:
    total, count = _fold(values)
    return total if count else None


def agg_avg(values: List[Any]) -> Any:
    total, count = _fold(values)
    return float(total) / count if count else None


def agg_count(values: List[Any]) -> int:
    return sum(1 for v in values if v is not None)


def sort_rows(rows: List[Any],
              keys: Sequence[Tuple[Callable[[Any], Any], bool]]
              ) -> List[Any]:
    """Stable multi-key sort: ``keys`` are (value_fn, descending),
    most significant first. NULLs go last for ASC, first for DESC
    (the engine's default placement)."""
    out = list(rows)
    for value_fn, descending in reversed(keys):
        nulls = [r for r in out if value_fn(r) is None]
        vals = [r for r in out if value_fn(r) is not None]
        vals.sort(key=value_fn, reverse=descending)
        out = nulls + vals if descending else vals + nulls
    return out


def _like_contains(*words: str) -> Callable[[str], bool]:
    """A ``LIKE '%w1%w2%'`` predicate (words in order)."""
    pattern = re.compile(".*".join(re.escape(w) for w in words),
                         re.DOTALL)
    return lambda text: pattern.search(text) is not None


def _d(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


# ----------------------------------------------------------------------
# the queries
# ----------------------------------------------------------------------
def ref_q1(t: Dict[str, Table]) -> List[Tuple]:
    rows = [r for r in rows_of(t["lineitem"])
            if r["l_shipdate"] <= _d("1998-09-02")]
    out = []
    for (flag, status), g in group_rows(
            rows, lambda r: (r["l_returnflag"], r["l_linestatus"])):
        disc_price = [r["l_extendedprice"] * (1 - r["l_discount"])
                      for r in g]
        charge = [r["l_extendedprice"] * (1 - r["l_discount"])
                  * (1 + r["l_tax"]) for r in g]
        out.append((
            flag, status,
            agg_sum([r["l_quantity"] for r in g]),
            agg_sum([r["l_extendedprice"] for r in g]),
            agg_sum(disc_price),
            agg_sum(charge),
            agg_avg([r["l_quantity"] for r in g]),
            agg_avg([r["l_extendedprice"] for r in g]),
            agg_avg([r["l_discount"] for r in g]),
            len(g),
        ))
    return sort_rows(out, [(lambda r: r[0], False),
                           (lambda r: r[1], False)])


def ref_q3(t: Dict[str, Table]) -> List[Tuple]:
    co = hash_join(rows_of(t["customer"]), rows_of(t["orders"]),
                   [("c_custkey", "o_custkey")])
    col = hash_join(co, rows_of(t["lineitem"]),
                    [("o_orderkey", "l_orderkey")])
    rows = [r for r in col
            if r["c_mktsegment"] == "BUILDING"
            and r["o_orderdate"] < _d("1995-03-15")
            and r["l_shipdate"] > _d("1995-03-15")]
    out = []
    for (okey, odate, prio), g in group_rows(
            rows, lambda r: (r["l_orderkey"], r["o_orderdate"],
                             r["o_shippriority"])):
        revenue = agg_sum([r["l_extendedprice"] * (1 - r["l_discount"])
                           for r in g])
        out.append((okey, revenue, odate, prio))
    out = sort_rows(out, [(lambda r: r[1], True),
                          (lambda r: r[2], False),
                          (lambda r: r[0], False)])
    return out[:10]


def ref_q4(t: Dict[str, Table]) -> List[Tuple]:
    late = {r["l_orderkey"] for r in rows_of(t["lineitem"])
            if r["l_commitdate"] < r["l_receiptdate"]}
    rows = [r for r in rows_of(t["orders"])
            if _d("1993-07-01") <= r["o_orderdate"] < _d("1993-10-01")
            and r["o_orderkey"] in late]
    out = [(prio, len(g)) for (prio,), g in group_rows(
        rows, lambda r: (r["o_orderpriority"],))]
    return sort_rows(out, [(lambda r: r[0], False)])


def ref_q5(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["customer"]), rows_of(t["orders"]),
                    [("c_custkey", "o_custkey")])
    rel = hash_join(rel, rows_of(t["lineitem"]),
                    [("o_orderkey", "l_orderkey")])
    rel = hash_join(rel, rows_of(t["supplier"]),
                    [("l_suppkey", "s_suppkey")])
    rel = hash_join(rel, rows_of(t["nation"]),
                    [("s_nationkey", "n_nationkey")])
    rel = hash_join(rel, rows_of(t["region"]),
                    [("n_regionkey", "r_regionkey")])
    rows = [r for r in rel
            if r["c_nationkey"] == r["s_nationkey"]
            and r["r_name"] == "ASIA"
            and _d("1994-01-01") <= r["o_orderdate"] < _d("1995-01-01")]
    out = []
    for (name,), g in group_rows(rows, lambda r: (r["n_name"],)):
        out.append((name, agg_sum(
            [r["l_extendedprice"] * (1 - r["l_discount"])
             for r in g])))
    return sort_rows(out, [(lambda r: r[1], True)])


def ref_q6(t: Dict[str, Table]) -> List[Tuple]:
    rows = [r for r in rows_of(t["lineitem"])
            if _d("1994-01-01") <= r["l_shipdate"] < _d("1995-01-01")
            and 0.05 <= r["l_discount"] <= 0.07
            and r["l_quantity"] < 24]
    return [(agg_sum([r["l_extendedprice"] * r["l_discount"]
                      for r in rows]),)]


def _nation_renamed(t: Dict[str, Table], prefix: str) -> List[Row]:
    return [{f"{prefix}_nationkey": r["n_nationkey"],
             f"{prefix}_name": r["n_name"],
             f"{prefix}_regionkey": r["n_regionkey"]}
            for r in rows_of(t["nation"])]


def ref_q7(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["supplier"]), rows_of(t["lineitem"]),
                    [("s_suppkey", "l_suppkey")])
    rel = hash_join(rel, rows_of(t["orders"]),
                    [("l_orderkey", "o_orderkey")])
    rel = hash_join(rel, rows_of(t["customer"]),
                    [("o_custkey", "c_custkey")])
    rel = hash_join(rel, _nation_renamed(t, "n1"),
                    [("s_nationkey", "n1_nationkey")])
    rel = hash_join(rel, _nation_renamed(t, "n2"),
                    [("c_nationkey", "n2_nationkey")])
    shipping = []
    for r in rel:
        pair = (r["n1_name"], r["n2_name"])
        if pair not in (("FRANCE", "GERMANY"), ("GERMANY", "FRANCE")):
            continue
        if not (_d("1995-01-01") <= r["l_shipdate"]
                <= _d("1996-12-31")):
            continue
        shipping.append({
            "supp_nation": r["n1_name"], "cust_nation": r["n2_name"],
            "l_year": r["l_shipdate"].year,
            "volume": r["l_extendedprice"] * (1 - r["l_discount"])})
    out = []
    for (sn, cn, year), g in group_rows(
            shipping, lambda r: (r["supp_nation"], r["cust_nation"],
                                 r["l_year"])):
        out.append((sn, cn, year, agg_sum([r["volume"] for r in g])))
    return sort_rows(out, [(lambda r: r[0], False),
                           (lambda r: r[1], False),
                           (lambda r: r[2], False)])


def ref_q8(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["part"]), rows_of(t["lineitem"]),
                    [("p_partkey", "l_partkey")])
    rel = hash_join(rel, rows_of(t["supplier"]),
                    [("l_suppkey", "s_suppkey")])
    rel = hash_join(rel, rows_of(t["orders"]),
                    [("l_orderkey", "o_orderkey")])
    rel = hash_join(rel, rows_of(t["customer"]),
                    [("o_custkey", "c_custkey")])
    rel = hash_join(rel, _nation_renamed(t, "n1"),
                    [("c_nationkey", "n1_nationkey")])
    rel = hash_join(rel, rows_of(t["region"]),
                    [("n1_regionkey", "r_regionkey")])
    rel = hash_join(rel, _nation_renamed(t, "n2"),
                    [("s_nationkey", "n2_nationkey")])
    all_nations = []
    for r in rel:
        if r["r_name"] != "AMERICA":
            continue
        if not (_d("1995-01-01") <= r["o_orderdate"]
                <= _d("1996-12-31")):
            continue
        if r["p_type"] != "ECONOMY ANODIZED STEEL":
            continue
        all_nations.append({
            "o_year": r["o_orderdate"].year,
            "volume": r["l_extendedprice"] * (1 - r["l_discount"]),
            "nation": r["n2_name"]})
    out = []
    for (year,), g in group_rows(all_nations,
                                 lambda r: (r["o_year"],)):
        brazil = agg_sum([r["volume"] if r["nation"] == "BRAZIL"
                          else 0.0 for r in g])
        total = agg_sum([r["volume"] for r in g])
        out.append((year, brazil / total))
    return sort_rows(out, [(lambda r: r[0], False)])


def ref_q9(t: Dict[str, Table]) -> List[Tuple]:
    like_green = _like_contains("green")
    rel = hash_join(rows_of(t["part"]), rows_of(t["lineitem"]),
                    [("p_partkey", "l_partkey")])
    rel = hash_join(rel, rows_of(t["supplier"]),
                    [("l_suppkey", "s_suppkey")])
    rel = hash_join(rel, rows_of(t["partsupp"]),
                    [("l_suppkey", "ps_suppkey"),
                     ("l_partkey", "ps_partkey")])
    rel = hash_join(rel, rows_of(t["orders"]),
                    [("l_orderkey", "o_orderkey")])
    rel = hash_join(rel, rows_of(t["nation"]),
                    [("s_nationkey", "n_nationkey")])
    profit = [{"nation": r["n_name"],
               "o_year": r["o_orderdate"].year,
               "amount": r["l_extendedprice"] * (1 - r["l_discount"])
               - r["ps_supplycost"] * r["l_quantity"]}
              for r in rel if like_green(r["p_name"])]
    out = []
    for (nation, year), g in group_rows(
            profit, lambda r: (r["nation"], r["o_year"])):
        out.append((nation, year,
                    agg_sum([r["amount"] for r in g])))
    return sort_rows(out, [(lambda r: r[0], False),
                           (lambda r: r[1], True)])


def ref_q10(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["customer"]), rows_of(t["orders"]),
                    [("c_custkey", "o_custkey")])
    rel = hash_join(rel, rows_of(t["lineitem"]),
                    [("o_orderkey", "l_orderkey")])
    rel = hash_join(rel, rows_of(t["nation"]),
                    [("c_nationkey", "n_nationkey")])
    rows = [r for r in rel
            if _d("1993-10-01") <= r["o_orderdate"] < _d("1994-01-01")
            and r["l_returnflag"] == "R"]
    out = []
    for key, g in group_rows(
            rows, lambda r: (r["c_custkey"], r["c_name"],
                             r["c_acctbal"], r["c_phone"], r["n_name"],
                             r["c_address"], r["c_comment"])):
        custkey, name, acctbal, phone, nation, address, comment = key
        revenue = agg_sum([r["l_extendedprice"] * (1 - r["l_discount"])
                           for r in g])
        out.append((custkey, name, revenue, acctbal, nation, address,
                    phone, comment))
    out = sort_rows(out, [(lambda r: r[2], True),
                          (lambda r: r[0], False)])
    return out[:20]


def _q11_rel(t: Dict[str, Table]) -> List[Row]:
    rel = hash_join(rows_of(t["partsupp"]), rows_of(t["supplier"]),
                    [("ps_suppkey", "s_suppkey")])
    rel = hash_join(rel, rows_of(t["nation"]),
                    [("s_nationkey", "n_nationkey")])
    return [r for r in rel if r["n_name"] == "GERMANY"]


def ref_q11(t: Dict[str, Table]) -> List[Tuple]:
    rows = _q11_rel(t)
    threshold = agg_sum([r["ps_supplycost"] * r["ps_availqty"]
                         for r in rows]) * 0.01
    out = []
    for (partkey,), g in group_rows(rows,
                                    lambda r: (r["ps_partkey"],)):
        value = agg_sum([r["ps_supplycost"] * r["ps_availqty"]
                         for r in g])
        if value > threshold:
            out.append((partkey, value))
    return sort_rows(out, [(lambda r: r[1], True),
                           (lambda r: r[0], False)])


def ref_q12(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["orders"]), rows_of(t["lineitem"]),
                    [("o_orderkey", "l_orderkey")])
    rows = [r for r in rel
            if r["l_shipmode"] in ("MAIL", "SHIP")
            and r["l_commitdate"] < r["l_receiptdate"]
            and r["l_shipdate"] < r["l_commitdate"]
            and _d("1994-01-01") <= r["l_receiptdate"]
            < _d("1995-01-01")]
    out = []
    for (mode,), g in group_rows(rows, lambda r: (r["l_shipmode"],)):
        high = sum(1 if r["o_orderpriority"] in ("1-URGENT", "2-HIGH")
                   else 0 for r in g)
        low = sum(1 if r["o_orderpriority"] not in ("1-URGENT",
                                                    "2-HIGH")
                  else 0 for r in g)
        out.append((mode, high, low))
    return sort_rows(out, [(lambda r: r[0], False)])


def ref_q13(t: Dict[str, Table]) -> List[Tuple]:
    special = _like_contains("special", "requests")
    rel = hash_join(rows_of(t["customer"]), rows_of(t["orders"]),
                    [("c_custkey", "o_custkey")], kind="left",
                    residual=lambda r: not special(r["o_comment"]))
    per_customer = []
    for (custkey,), g in group_rows(rel, lambda r: (r["c_custkey"],)):
        per_customer.append({
            "c_count": agg_count([r["o_orderkey"] for r in g])})
    out = []
    for (count,), g in group_rows(per_customer,
                                  lambda r: (r["c_count"],)):
        out.append((count, len(g)))
    return sort_rows(out, [(lambda r: r[1], True),
                           (lambda r: r[0], True)])


def ref_q14(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["lineitem"]), rows_of(t["part"]),
                    [("l_partkey", "p_partkey")])
    rows = [r for r in rel
            if _d("1995-09-01") <= r["l_shipdate"] < _d("1995-10-01")]
    promo = agg_sum([r["l_extendedprice"] * (1 - r["l_discount"])
                     if r["p_type"].startswith("PROMO") else 0.0
                     for r in rows])
    total = agg_sum([r["l_extendedprice"] * (1 - r["l_discount"])
                     for r in rows])
    return [((100.00 * promo) / total,)]


def ref_q15(t: Dict[str, Table]) -> List[Tuple]:
    rows = [r for r in rows_of(t["lineitem"])
            if _d("1996-01-01") <= r["l_shipdate"] < _d("1996-04-01")]
    revenue = []
    for (suppkey,), g in group_rows(rows, lambda r: (r["l_suppkey"],)):
        revenue.append({
            "supplier_no": suppkey,
            "total_revenue": agg_sum(
                [r["l_extendedprice"] * (1 - r["l_discount"])
                 for r in g])})
    best = max(r["total_revenue"] for r in revenue)
    rel = hash_join(rows_of(t["supplier"]), revenue,
                    [("s_suppkey", "supplier_no")])
    out = [(r["s_suppkey"], r["s_name"], r["s_address"], r["s_phone"],
            r["total_revenue"]) for r in rel
           if r["total_revenue"] == best]
    return sort_rows(out, [(lambda r: r[0], False)])


def ref_q16(t: Dict[str, Table]) -> List[Tuple]:
    complaints = _like_contains("Customer", "Complaints")
    bad = {r["s_suppkey"] for r in rows_of(t["supplier"])
           if complaints(r["s_comment"])}
    rel = hash_join(rows_of(t["partsupp"]), rows_of(t["part"]),
                    [("ps_partkey", "p_partkey")])
    rows = [r for r in rel
            if r["p_brand"] != "Brand#45"
            and not r["p_type"].startswith("MEDIUM POLISHED")
            and r["p_size"] in (49, 14, 23, 45, 19, 3, 36, 9)
            and r["ps_suppkey"] not in bad]
    out = []
    for (brand, ptype, size), g in group_rows(
            rows, lambda r: (r["p_brand"], r["p_type"], r["p_size"])):
        out.append((brand, ptype, size,
                    len({r["ps_suppkey"] for r in g})))
    return sort_rows(out, [(lambda r: r[3], True),
                           (lambda r: r[0], False),
                           (lambda r: r[1], False),
                           (lambda r: r[2], False)])


def ref_q17(t: Dict[str, Table]) -> List[Tuple]:
    avg_qty: Dict[int, float] = {}
    for (partkey,), g in group_rows(rows_of(t["lineitem"]),
                                    lambda r: (r["l_partkey"],)):
        avg_qty[partkey] = agg_avg([r["l_quantity"] for r in g])
    rel = hash_join(rows_of(t["lineitem"]), rows_of(t["part"]),
                    [("l_partkey", "p_partkey")])
    target = [r for r in rel
              if r["p_brand"] == "Brand#23"
              and r["p_container"] == "MED BOX"]
    kept = [r for r in target
            if r["l_quantity"] < 0.2 * avg_qty[r["l_partkey"]]]
    return [(agg_sum([r["l_extendedprice"] for r in kept]) / 7.0,)]


def ref_q18(t: Dict[str, Table]) -> List[Tuple]:
    big = set()
    for (okey,), g in group_rows(rows_of(t["lineitem"]),
                                 lambda r: (r["l_orderkey"],)):
        if agg_sum([r["l_quantity"] for r in g]) > 250:
            big.add(okey)
    rel = hash_join(rows_of(t["customer"]), rows_of(t["orders"]),
                    [("c_custkey", "o_custkey")])
    rel = hash_join(rel, rows_of(t["lineitem"]),
                    [("o_orderkey", "l_orderkey")])
    rows = [r for r in rel if r["o_orderkey"] in big]
    out = []
    for key, g in group_rows(
            rows, lambda r: (r["c_name"], r["c_custkey"],
                             r["o_orderkey"], r["o_orderdate"],
                             r["o_totalprice"])):
        out.append(key + (agg_sum([r["l_quantity"] for r in g]),))
    out = sort_rows(out, [(lambda r: r[4], True),
                          (lambda r: r[3], False),
                          (lambda r: r[2], False)])
    return out[:100]


def ref_q19(t: Dict[str, Table]) -> List[Tuple]:
    rel = hash_join(rows_of(t["lineitem"]), rows_of(t["part"]),
                    [("l_partkey", "p_partkey")])

    def match(r: Row) -> bool:
        air = r["l_shipmode"] in ("AIR", "REG AIR") \
            and r["l_shipinstruct"] == "DELIVER IN PERSON"
        return air and (
            (r["p_brand"] == "Brand#12"
             and r["p_container"] in ("SM CASE", "SM BOX", "SM PACK",
                                      "SM PKG")
             and 1 <= r["l_quantity"] <= 11
             and 1 <= r["p_size"] <= 5)
            or (r["p_brand"] == "Brand#23"
                and r["p_container"] in ("MED BAG", "MED BOX",
                                         "MED PKG", "MED PACK")
                and 10 <= r["l_quantity"] <= 20
                and 1 <= r["p_size"] <= 10)
            or (r["p_brand"] == "Brand#34"
                and r["p_container"] in ("LG CASE", "LG BOX",
                                         "LG PACK", "LG PKG")
                and 20 <= r["l_quantity"] <= 30
                and 1 <= r["p_size"] <= 15))

    rows = [r for r in rel if match(r)]
    return [(agg_sum([r["l_extendedprice"] * (1 - r["l_discount"])
                      for r in rows]),)]


REFERENCE: Dict[str, Callable[[Dict[str, Table]], List[Tuple]]] = {
    "q1": ref_q1, "q3": ref_q3, "q4": ref_q4, "q5": ref_q5,
    "q6": ref_q6, "q7": ref_q7, "q8": ref_q8, "q9": ref_q9,
    "q10": ref_q10, "q11": ref_q11, "q12": ref_q12, "q13": ref_q13,
    "q14": ref_q14, "q15": ref_q15, "q16": ref_q16, "q17": ref_q17,
    "q18": ref_q18, "q19": ref_q19,
}
