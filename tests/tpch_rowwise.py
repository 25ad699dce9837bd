"""The TPC-H generator as it was written first: row by row.

:func:`repro.tpch.tpch_tables` draws every column in batches and
emulates numpy's bounded-integer stream to do so. This module keeps
the original per-order, per-line body verbatim, so that
``tests/test_tpch_generator.py`` can assert that the batched tables
are the same bits. It is an oracle: slow (seconds at SF 0.01) and not
cached.
"""

from __future__ import annotations

import datetime
from typing import Dict, List

import numpy as np

from repro.table.column import DataType
from repro.table.table import Table
from repro.tpch.generator import TPCH_END_DATE, TPCH_START_DATE
from repro.tpch.tables import (
    _COLORS, _CONTAINER_S1, _CONTAINER_S2, _INSTRUCTIONS, _MODES,
    _NATIONS, _NOISE_WORDS, _PRIORITIES, _REGIONS, _SEGMENTS, _TYPE_S1,
    _TYPE_S2, _TYPE_S3, CURRENT_DATE)


def _retail_price(partkey: int) -> float:
    """The spec's p_retailprice formula, in dollars."""
    return (90000 + (partkey // 10) % 20001 + 100 * (partkey % 1000)) \
        / 100.0


def _phone(rng: np.random.Generator, nationkey: int) -> str:
    a, b, c = rng.integers(100, 1000, size=3)
    return f"{10 + nationkey}-{a}-{b}-{c}"


def _comment(rng: np.random.Generator, words: int = 4) -> str:
    picks = rng.integers(0, len(_NOISE_WORDS), size=words)
    return " ".join(_NOISE_WORDS[i] for i in picks)


def _partsupp_suppliers(partkey: int, nsupp: int) -> List[int]:
    """The spec's four suppliers of a part (4.2.3, PS_SUPPKEY)."""
    return [(partkey + i * (nsupp // 4 + (partkey - 1) // nsupp))
            % nsupp + 1 for i in range(4)]


def tpch_tables_rowwise(scale_factor: float = 0.01,
                seed: int = 2022) -> Dict[str, Table]:
    """All eight TPC-H tables, one order and one line at a time."""
    rng = np.random.default_rng(seed)
    nsupp = max(int(10_000 * scale_factor), 12)
    ncust = max(int(150_000 * scale_factor), 30)
    npart = max(int(200_000 * scale_factor), 40)
    norders = max(int(1_500_000 * scale_factor), 150)
    epoch = datetime.date(1970, 1, 1)
    start = (TPCH_START_DATE - epoch).days
    end = (TPCH_END_DATE - epoch).days

    tables: Dict[str, Table] = {}
    tables["region"] = Table.from_dict({
        "r_regionkey": (DataType.INT64, list(range(len(_REGIONS)))),
        "r_name": (DataType.STRING, list(_REGIONS)),
        "r_comment": (DataType.STRING,
                      [_comment(rng) for _ in _REGIONS]),
    }, name="region")
    tables["nation"] = Table.from_dict({
        "n_nationkey": (DataType.INT64, list(range(len(_NATIONS)))),
        "n_name": (DataType.STRING, [n for n, _ in _NATIONS]),
        "n_regionkey": (DataType.INT64, [r for _, r in _NATIONS]),
        "n_comment": (DataType.STRING,
                      [_comment(rng) for _ in _NATIONS]),
    }, name="nation")

    # supplier — a deterministic handful of comments carry the
    # "Customer ... Complaints" marker Q16 anti-joins on.
    s_nation = rng.integers(0, len(_NATIONS), size=nsupp)
    s_acctbal = np.round(rng.uniform(-999.99, 9999.99, size=nsupp), 2)
    s_comments = [_comment(rng, 5) for _ in range(nsupp)]
    for i in range(0, nsupp, max(nsupp // 5, 1)):
        s_comments[i] = (f"{_comment(rng, 2)} Customer "
                         f"{_comment(rng, 1)} Complaints")
    tables["supplier"] = Table.from_dict({
        "s_suppkey": (DataType.INT64, list(range(1, nsupp + 1))),
        "s_name": (DataType.STRING,
                   [f"Supplier#{i:09d}" for i in range(1, nsupp + 1)]),
        "s_address": (DataType.STRING,
                      [_comment(rng, 2) for _ in range(nsupp)]),
        "s_nationkey": (DataType.INT64, s_nation.tolist()),
        "s_phone": (DataType.STRING,
                    [_phone(rng, int(n)) for n in s_nation]),
        "s_acctbal": (DataType.FLOAT64, s_acctbal.tolist()),
        "s_comment": (DataType.STRING, s_comments),
    }, name="supplier")

    c_nation = rng.integers(0, len(_NATIONS), size=ncust)
    c_segment = rng.integers(0, len(_SEGMENTS), size=ncust)
    tables["customer"] = Table.from_dict({
        "c_custkey": (DataType.INT64, list(range(1, ncust + 1))),
        "c_name": (DataType.STRING,
                   [f"Customer#{i:09d}" for i in range(1, ncust + 1)]),
        "c_address": (DataType.STRING,
                      [_comment(rng, 2) for _ in range(ncust)]),
        "c_nationkey": (DataType.INT64, c_nation.tolist()),
        "c_phone": (DataType.STRING,
                    [_phone(rng, int(n)) for n in c_nation]),
        "c_acctbal": (DataType.FLOAT64, np.round(
            rng.uniform(-999.99, 9999.99, size=ncust), 2).tolist()),
        "c_mktsegment": (DataType.STRING,
                         [_SEGMENTS[i] for i in c_segment]),
        "c_comment": (DataType.STRING,
                      [_comment(rng, 5) for _ in range(ncust)]),
    }, name="customer")

    # part — names are five colour words (Q9: LIKE '%green%'), brands
    # tie into manufacturers the way the spec prescribes.
    p_mfgr_idx = rng.integers(1, 6, size=npart)
    p_brand_idx = rng.integers(1, 6, size=npart)
    p_names = []
    for _ in range(npart):
        picks = rng.choice(len(_COLORS), size=5, replace=False)
        p_names.append(" ".join(_COLORS[i] for i in picks))
    p_types = [
        f"{_TYPE_S1[a]} {_TYPE_S2[b]} {_TYPE_S3[c]}"
        for a, b, c in zip(rng.integers(0, len(_TYPE_S1), size=npart),
                           rng.integers(0, len(_TYPE_S2), size=npart),
                           rng.integers(0, len(_TYPE_S3), size=npart))]
    p_containers = [
        f"{_CONTAINER_S1[a]} {_CONTAINER_S2[b]}"
        for a, b in zip(rng.integers(0, len(_CONTAINER_S1), size=npart),
                        rng.integers(0, len(_CONTAINER_S2), size=npart))]
    tables["part"] = Table.from_dict({
        "p_partkey": (DataType.INT64, list(range(1, npart + 1))),
        "p_name": (DataType.STRING, p_names),
        "p_mfgr": (DataType.STRING,
                   [f"Manufacturer#{i}" for i in p_mfgr_idx]),
        "p_brand": (DataType.STRING,
                    [f"Brand#{m}{b}" for m, b in zip(p_mfgr_idx,
                                                     p_brand_idx)]),
        "p_type": (DataType.STRING, p_types),
        "p_size": (DataType.INT64,
                   rng.integers(1, 51, size=npart).tolist()),
        "p_container": (DataType.STRING, p_containers),
        "p_retailprice": (DataType.FLOAT64,
                          [_retail_price(k)
                           for k in range(1, npart + 1)]),
        "p_comment": (DataType.STRING,
                      [_comment(rng, 3) for _ in range(npart)]),
    }, name="part")

    ps_part: List[int] = []
    ps_supp: List[int] = []
    for partkey in range(1, npart + 1):
        for suppkey in _partsupp_suppliers(partkey, nsupp):
            ps_part.append(partkey)
            ps_supp.append(suppkey)
    npartsupp = len(ps_part)
    tables["partsupp"] = Table.from_dict({
        "ps_partkey": (DataType.INT64, ps_part),
        "ps_suppkey": (DataType.INT64, ps_supp),
        "ps_availqty": (DataType.INT64, rng.integers(
            1, 10_000, size=npartsupp).tolist()),
        "ps_supplycost": (DataType.FLOAT64, np.round(
            rng.uniform(1.0, 1000.0, size=npartsupp), 2).tolist()),
        "ps_comment": (DataType.STRING,
                       [_comment(rng, 4) for _ in range(npartsupp)]),
    }, name="partsupp")

    # orders + lineitem, generated together so o_orderstatus and
    # o_totalprice are consistent with the order's lines.
    o_custkey = rng.integers(1, ncust + 1, size=norders)
    o_orderdate = rng.integers(start, end - 151, size=norders)
    o_priority = rng.integers(0, len(_PRIORITIES), size=norders)
    o_clerk = rng.integers(1, max(norders // 15, 2), size=norders)
    o_comments = [_comment(rng, 4) for _ in range(norders)]
    # ~5% of comments match Q13's '%special%requests%' exclusion.
    for i in rng.choice(norders, size=max(norders // 20, 1),
                        replace=False):
        o_comments[i] = (f"{_comment(rng, 1)} special "
                         f"{_comment(rng, 1)} requests")
    lines_per_order = rng.integers(1, 8, size=norders)

    l_cols: Dict[str, list] = {name: [] for name in (
        "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
        "l_quantity", "l_extendedprice", "l_discount", "l_tax",
        "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
        "l_receiptdate", "l_shipinstruct", "l_shipmode", "l_comment")}
    o_status: List[str] = []
    o_totalprice: List[float] = []
    current = (CURRENT_DATE - epoch).days
    retail = [0.0] + [_retail_price(k) for k in range(1, npart + 1)]
    for oi in range(norders):
        orderkey = oi + 1
        nlines = int(lines_per_order[oi])
        odate = int(o_orderdate[oi])
        partkeys = rng.integers(1, npart + 1, size=nlines)
        which_supp = rng.integers(0, 4, size=nlines)
        quantities = rng.integers(1, 51, size=nlines)
        discounts = np.round(rng.integers(0, 11, size=nlines) / 100.0, 2)
        taxes = np.round(rng.integers(0, 9, size=nlines) / 100.0, 2)
        shipdays = rng.integers(1, 122, size=nlines)
        commitdays = rng.integers(30, 91, size=nlines)
        receiptdays = rng.integers(1, 31, size=nlines)
        instr = rng.integers(0, len(_INSTRUCTIONS), size=nlines)
        modes = rng.integers(0, len(_MODES), size=nlines)
        flag_coin = rng.integers(0, 2, size=nlines)
        total = 0.0
        statuses = []
        for li in range(nlines):
            partkey = int(partkeys[li])
            suppkey = _partsupp_suppliers(partkey, nsupp)[
                int(which_supp[li])]
            qty = float(quantities[li])
            price = round(qty * retail[partkey], 2)
            discount = float(discounts[li])
            tax = float(taxes[li])
            shipdate = odate + int(shipdays[li])
            receiptdate = shipdate + int(receiptdays[li])
            linestatus = "O" if shipdate > current else "F"
            if receiptdate <= current:
                returnflag = "R" if flag_coin[li] else "A"
            else:
                returnflag = "N"
            l_cols["l_orderkey"].append(orderkey)
            l_cols["l_partkey"].append(partkey)
            l_cols["l_suppkey"].append(suppkey)
            l_cols["l_linenumber"].append(li + 1)
            l_cols["l_quantity"].append(qty)
            l_cols["l_extendedprice"].append(price)
            l_cols["l_discount"].append(discount)
            l_cols["l_tax"].append(tax)
            l_cols["l_returnflag"].append(returnflag)
            l_cols["l_linestatus"].append(linestatus)
            l_cols["l_shipdate"].append(epoch + datetime.timedelta(
                days=shipdate))
            l_cols["l_commitdate"].append(epoch + datetime.timedelta(
                days=odate + int(commitdays[li])))
            l_cols["l_receiptdate"].append(epoch + datetime.timedelta(
                days=receiptdate))
            l_cols["l_shipinstruct"].append(_INSTRUCTIONS[instr[li]])
            l_cols["l_shipmode"].append(_MODES[modes[li]])
            l_cols["l_comment"].append(_comment(rng, 2))
            total += price * (1 + tax) * (1 - discount)
            statuses.append(linestatus)
        if all(s == "F" for s in statuses):
            o_status.append("F")
        elif all(s == "O" for s in statuses):
            o_status.append("O")
        else:
            o_status.append("P")
        o_totalprice.append(round(total, 2))

    tables["orders"] = Table.from_dict({
        "o_orderkey": (DataType.INT64, list(range(1, norders + 1))),
        "o_custkey": (DataType.INT64, o_custkey.tolist()),
        "o_orderstatus": (DataType.STRING, o_status),
        "o_totalprice": (DataType.FLOAT64, o_totalprice),
        "o_orderdate": (DataType.DATE,
                        [epoch + datetime.timedelta(days=int(d))
                         for d in o_orderdate]),
        "o_orderpriority": (DataType.STRING,
                            [_PRIORITIES[i] for i in o_priority]),
        "o_clerk": (DataType.STRING,
                    [f"Clerk#{int(c):09d}" for c in o_clerk]),
        "o_shippriority": (DataType.INT64, [0] * norders),
        "o_comment": (DataType.STRING, o_comments),
    }, name="orders")
    tables["lineitem"] = Table.from_dict({
        "l_orderkey": (DataType.INT64, l_cols["l_orderkey"]),
        "l_partkey": (DataType.INT64, l_cols["l_partkey"]),
        "l_suppkey": (DataType.INT64, l_cols["l_suppkey"]),
        "l_linenumber": (DataType.INT64, l_cols["l_linenumber"]),
        "l_quantity": (DataType.FLOAT64, l_cols["l_quantity"]),
        "l_extendedprice": (DataType.FLOAT64,
                            l_cols["l_extendedprice"]),
        "l_discount": (DataType.FLOAT64, l_cols["l_discount"]),
        "l_tax": (DataType.FLOAT64, l_cols["l_tax"]),
        "l_returnflag": (DataType.STRING, l_cols["l_returnflag"]),
        "l_linestatus": (DataType.STRING, l_cols["l_linestatus"]),
        "l_shipdate": (DataType.DATE, l_cols["l_shipdate"]),
        "l_commitdate": (DataType.DATE, l_cols["l_commitdate"]),
        "l_receiptdate": (DataType.DATE, l_cols["l_receiptdate"]),
        "l_shipinstruct": (DataType.STRING, l_cols["l_shipinstruct"]),
        "l_shipmode": (DataType.STRING, l_cols["l_shipmode"]),
        "l_comment": (DataType.STRING, l_cols["l_comment"]),
    }, name="lineitem")
    return tables
