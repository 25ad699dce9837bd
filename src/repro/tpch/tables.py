"""The full eight-table TPC-H schema, generated FK-consistently.

:mod:`repro.tpch.generator` covers the single-table window benchmarks;
the relational frontend (joins, CTEs, subqueries) needs the whole
schema. This module generates all eight TPC-H tables at a given scale
factor with consistent foreign keys — every ``l_orderkey`` exists in
``orders``, every ``(l_partkey, l_suppkey)`` pair exists in
``partsupp`` (Q9 joins on exactly that pair), nation/region are the
spec's fixed 25/5 rows — and with the value distributions the queries
depend on: ``p_name`` built from the spec's colour words (Q9 filters
``LIKE '%green%'``), ``o_comment`` seeded with ``special … requests``
(Q13), ``s_comment`` with ``Customer … Complaints`` (Q16), priorities,
segments, ship modes and brands drawn from the spec vocabularies.

Values are drawn from a seeded numpy generator, not from the spec's
own generator: *row values* differ from the official data, but the
columns are the spec's and the distributions match it closely enough
for every adapted query in :mod:`repro.tpch.queries` to return
non-trivial results.

Everything is deterministic in ``(scale_factor, seed)`` and cached, so
the engine under test and the pure-Python reference implementation
(:mod:`repro.tpch.reference`) consume the *same* Table objects.
"""

from __future__ import annotations

import datetime
from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

from repro.sql.catalog import Catalog
from repro.table.column import Column, DataType
from repro.table.schema import Field, Schema
from repro.table.table import Table
from repro.tpch.generator import (TPCH_END_DATE, TPCH_START_DATE,
                                  _retail_price)

__all__ = ["tpch_tables", "tpch_catalog", "CURRENT_DATE"]

#: The spec's pseudo "today" used for l_returnflag / l_linestatus.
CURRENT_DATE = datetime.date(1995, 6, 17)

# Spec Section 4.2.3: the fixed nation and region rows.
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

# Spec 4.2.2.13 vocabularies (subset large enough for the queries).
_COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque",
    "black", "blanched", "blue", "blush", "brown", "burlywood",
    "burnished", "chartreuse", "chiffon", "chocolate", "coral",
    "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim",
    "dodger", "drab", "firebrick", "floral", "forest", "frosted",
    "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
    "lemon", "light", "lime", "linen", "magenta", "maroon", "medium",
    "metallic", "midnight", "mint", "misty", "moccasin", "navajo",
    "navy", "olive", "orange", "orchid", "pale", "papaya", "peach",
    "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose",
    "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna",
    "sky", "slate", "smoke", "snow", "spring", "steel", "tan",
    "thistle", "tomato", "turquoise", "violet", "wheat", "white",
    "yellow",
]
_TYPE_S1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_TYPE_S2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
_TYPE_S3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_CONTAINER_S1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
_CONTAINER_S2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN",
                 "DRUM"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
             "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
               "5-LOW"]
_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
                 "TAKE BACK RETURN"]
_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_NOISE_WORDS = [
    "carefully", "quickly", "furiously", "slyly", "blithely", "ironic",
    "regular", "express", "pending", "final", "bold", "even", "silent",
    "daring", "unusual", "deposits", "requests", "instructions",
    "accounts", "packages", "foxes", "pinto", "beans", "theodolites",
    "platelets", "ideas",
]


_WORDS = np.array(_NOISE_WORDS, dtype=object)
_DIGITS = np.array([str(d) for d in range(10)], dtype=object)
#: o_orderstatus by (no line open, every line open, some open).
_STATUS = np.array(["F", "O", "P"], dtype=object)
#: l_returnflag by the line's coin when received, else "N".
_FLAGS = np.array(["A", "R", "N"], dtype=object)
_LOW32 = np.uint64(0xFFFFFFFF)
#: Orders laid out per call of :func:`bounded_draws` in the lineitem
#: pass (~52 draws an order): keeps its uint64 temporaries ~2 MB each.
_ORDERS_PER_BATCH = 4096


def bounded_draws(rng: np.random.Generator, ranges) -> np.ndarray:
    """``rng.integers(0, r, size=1)`` for each ``r`` of ``ranges`` (all
    in ``[2, 2**32]``), in order, as one uint64 array — the same values,
    and ``rng`` left in the same state, as those calls one by one.

    ``Generator.integers`` takes such a range from one word of the bit
    generator's uint32 stream (PCG64 keeps the unused half of each
    64-bit output for the next 32-bit draw, so the stream runs on
    across calls): the value is ``(word * r) >> 32`` (Lemire's method)
    unless the product's low 32 bits fall below ``(2**32 - r) % r``;
    then the word is rejected and the next one tried. Here one call
    draws a word per range and the same rule is applied to all of them;
    each (rare) rejection moves the later ranges one word on and draws
    one more word. DESIGN.md §13 says on which numpy versions this is
    checked.
    """
    r = np.asarray(ranges, dtype=np.uint64)
    threshold = (np.uint64(1 << 32) - r) % r
    words = rng.integers(0, 1 << 32, size=len(r), dtype=np.uint64)
    values = np.empty(len(r), dtype=np.uint64)
    done = 0
    while True:
        product = words * r[done:]
        rejected = np.flatnonzero((product & _LOW32) < threshold[done:])
        stop = int(rejected[0]) if len(rejected) else len(product)
        values[done:done + stop] = product[:stop] >> np.uint64(32)
        if not len(rejected):
            return values
        done += stop
        words = np.concatenate([words[stop + 1:], rng.integers(
            0, 1 << 32, size=1, dtype=np.uint64)])


def _lineitem_draws(rng: np.random.Generator, nlines: np.ndarray,
                    npart: int) -> np.ndarray:
    """Every bounded draw of the lineitem lines, as a (13, lines) int64
    array in line order.

    An order of ``n`` lines draws, in this order, ``n`` values each of
    part key, supplier slot, quantity, discount, tax, ship / commit /
    receipt day offsets, ship instruction, ship mode and return-flag
    coin, then two comment words per line. Rows 0–10 of the result are
    those eleven columns and rows 11–12 the comment words; each batch
    of orders is one :func:`bounded_draws` call over that slot layout.
    """
    low = np.array([1, 0, 1, 0, 0, 1, 30, 1, 0, 0, 0, 0, 0])
    high = np.array([npart + 1, 4, 51, 11, 9, 122, 91, 31,
                     len(_INSTRUCTIONS), len(_MODES), 2, len(_WORDS),
                     len(_WORDS)])
    width = len(low)
    # Slot of row c for line j of an order of n lines whose draws start
    # at slot s: s + a[c] * n + b[c] * j + e[c].
    a = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11])[:, None]
    b = np.array([1] * 11 + [2, 2])[:, None]
    e = np.array([0] * 12 + [1])[:, None]
    draws = np.empty((width, int(nlines.sum())), dtype=np.int64)
    done = 0
    for first in range(0, len(nlines), _ORDERS_PER_BATCH):
        n = nlines[first:first + _ORDERS_PER_BATCH]
        order_start = np.repeat(np.cumsum(n) - n, n)
        n = np.repeat(n, n)
        j = np.arange(len(n)) - order_start
        slots = width * order_start + a * n + b * j + e
        ranges = np.empty(slots.size, dtype=np.uint64)
        ranges[slots] = (high - low)[:, None]
        values = bounded_draws(rng, ranges)[slots].astype(np.int64)
        draws[:, done:done + len(n)] = values + low[:, None]
        done += len(n)
    return draws


def _strings(values) -> np.ndarray:
    return np.array(values, dtype=object)


def _cat(*parts) -> np.ndarray:
    """Element-wise concatenation of string object arrays and ``str``."""
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return out


def _words(rng: np.random.Generator, n: int, words: int) -> np.ndarray:
    """An (n, words) object array of noise words, from one draw."""
    return _WORDS[rng.integers(0, len(_WORDS), size=(n, words))]


def _join(words: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array of ``str`` joined with single spaces."""
    out = words[:, 0]
    for k in range(1, words.shape[1]):
        out = out + " " + words[:, k]
    return out


def _comments(rng: np.random.Generator, n: int,
              words: int = 4) -> np.ndarray:
    """``n`` comments of ``words`` noise words each."""
    return _join(_words(rng, n, words))


def _phones(rng: np.random.Generator, nations: np.ndarray) -> np.ndarray:
    """A phone number per nation key, its groups from one (n, 3) draw."""
    groups = rng.integers(100, 1000, size=(len(nations), 3)).tolist()
    return _strings([f"{10 + n}-{a}-{b}-{c}"
                     for n, (a, b, c) in zip(nations.tolist(), groups)])


def _suppliers(partkey: np.ndarray, which: np.ndarray,
               nsupp: int) -> np.ndarray:
    """Supplier ``which`` (0–3) of each part (spec 4.2.3, PS_SUPPKEY)."""
    return (partkey + which * (nsupp // 4 + (partkey - 1) // nsupp)) \
        % nsupp + 1


def _table(name: str, columns: Dict[str, Tuple[DataType, Any]]) -> Table:
    """A table of whole columns — numeric arrays and ``str`` object
    arrays — wrapped without per-value checks."""
    schema = Schema(Field(col, dtype) for col, (dtype, _) in columns.items())
    return Table.from_columns(
        schema, [Column.from_numpy(dtype, values)
                 for dtype, values in columns.values()], name=name)


@lru_cache(maxsize=4)
def tpch_tables(scale_factor: float = 0.01,
                seed: int = 2022) -> Dict[str, Table]:
    """All eight TPC-H tables, FK-consistent, keyed by table name.

    Cached on ``(scale_factor, seed)`` — callers share Table objects
    and must not mutate them. Every column comes from batched draws in
    the order the original row-by-row generator made them, so the
    tables are that generator's bit for bit (``tests/tpch_rowwise.py``
    keeps it as the oracle). SF 0.01 (~60k lineitem rows) takes about
    0.1 s, SF 0.1 about a second.
    """
    rng = np.random.default_rng(seed)
    nsupp = max(int(10_000 * scale_factor), 12)
    ncust = max(int(150_000 * scale_factor), 30)
    npart = max(int(200_000 * scale_factor), 40)
    norders = max(int(1_500_000 * scale_factor), 150)
    epoch = datetime.date(1970, 1, 1)
    start = (TPCH_START_DATE - epoch).days
    end = (TPCH_END_DATE - epoch).days

    tables: Dict[str, Table] = {}
    tables["region"] = _table("region", {
        "r_regionkey": (DataType.INT64, np.arange(len(_REGIONS))),
        "r_name": (DataType.STRING, _strings(_REGIONS)),
        "r_comment": (DataType.STRING, _comments(rng, len(_REGIONS))),
    })
    tables["nation"] = _table("nation", {
        "n_nationkey": (DataType.INT64, np.arange(len(_NATIONS))),
        "n_name": (DataType.STRING, _strings([n for n, _ in _NATIONS])),
        "n_regionkey": (DataType.INT64, np.array([r for _, r in _NATIONS])),
        "n_comment": (DataType.STRING, _comments(rng, len(_NATIONS))),
    })

    # supplier — a deterministic handful of comments carry the
    # "Customer ... Complaints" marker Q16 anti-joins on.
    s_nation = rng.integers(0, len(_NATIONS), size=nsupp)
    s_acctbal = np.round(rng.uniform(-999.99, 9999.99, size=nsupp), 2)
    s_comment = _comments(rng, nsupp, 5)
    marked = np.arange(0, nsupp, max(nsupp // 5, 1))
    words = _words(rng, len(marked), 3)
    s_comment[marked] = _cat(_join(words[:, :2]), " Customer ",
                             words[:, 2], " Complaints")
    s_address = _comments(rng, nsupp, 2)
    s_phone = _phones(rng, s_nation)
    tables["supplier"] = _table("supplier", {
        "s_suppkey": (DataType.INT64, np.arange(1, nsupp + 1)),
        "s_name": (DataType.STRING, _strings(
            [f"Supplier#{i:09d}" for i in range(1, nsupp + 1)])),
        "s_address": (DataType.STRING, s_address),
        "s_nationkey": (DataType.INT64, s_nation),
        "s_phone": (DataType.STRING, s_phone),
        "s_acctbal": (DataType.FLOAT64, s_acctbal),
        "s_comment": (DataType.STRING, s_comment),
    })

    c_nation = rng.integers(0, len(_NATIONS), size=ncust)
    c_segment = rng.integers(0, len(_SEGMENTS), size=ncust)
    c_address = _comments(rng, ncust, 2)
    c_phone = _phones(rng, c_nation)
    c_acctbal = np.round(rng.uniform(-999.99, 9999.99, size=ncust), 2)
    tables["customer"] = _table("customer", {
        "c_custkey": (DataType.INT64, np.arange(1, ncust + 1)),
        "c_name": (DataType.STRING, _strings(
            [f"Customer#{i:09d}" for i in range(1, ncust + 1)])),
        "c_address": (DataType.STRING, c_address),
        "c_nationkey": (DataType.INT64, c_nation),
        "c_phone": (DataType.STRING, c_phone),
        "c_acctbal": (DataType.FLOAT64, c_acctbal),
        "c_mktsegment": (DataType.STRING, _strings(_SEGMENTS)[c_segment]),
        "c_comment": (DataType.STRING, _comments(rng, ncust, 5)),
    })

    # part — names are five colour words (Q9: LIKE '%green%'), brands
    # tie into manufacturers the way the spec prescribes.
    p_mfgr = _DIGITS[rng.integers(1, 6, size=npart)]
    p_brand = _DIGITS[rng.integers(1, 6, size=npart)]
    # choice(replace=False) is not batched: one call per part.
    colours = _strings(_COLORS)[np.array(
        [rng.choice(len(_COLORS), size=5, replace=False)
         for _ in range(npart)])]
    type1 = _strings(_TYPE_S1)[rng.integers(0, len(_TYPE_S1), size=npart)]
    type2 = _strings(_TYPE_S2)[rng.integers(0, len(_TYPE_S2), size=npart)]
    type3 = _strings(_TYPE_S3)[rng.integers(0, len(_TYPE_S3), size=npart)]
    size1 = _strings(_CONTAINER_S1)[
        rng.integers(0, len(_CONTAINER_S1), size=npart)]
    size2 = _strings(_CONTAINER_S2)[
        rng.integers(0, len(_CONTAINER_S2), size=npart)]
    p_size = rng.integers(1, 51, size=npart)
    partkeys = np.arange(1, npart + 1)
    tables["part"] = _table("part", {
        "p_partkey": (DataType.INT64, partkeys),
        "p_name": (DataType.STRING, _join(colours)),
        "p_mfgr": (DataType.STRING, _cat("Manufacturer#", p_mfgr)),
        "p_brand": (DataType.STRING, _cat("Brand#", p_mfgr, p_brand)),
        "p_type": (DataType.STRING, _cat(type1, " ", type2, " ", type3)),
        "p_size": (DataType.INT64, p_size),
        "p_container": (DataType.STRING, _cat(size1, " ", size2)),
        "p_retailprice": (DataType.FLOAT64, _retail_price(partkeys)),
        "p_comment": (DataType.STRING, _comments(rng, npart, 3)),
    })

    ps_partkey = np.repeat(partkeys, 4)
    npartsupp = len(ps_partkey)
    tables["partsupp"] = _table("partsupp", {
        "ps_partkey": (DataType.INT64, ps_partkey),
        "ps_suppkey": (DataType.INT64, _suppliers(
            ps_partkey, np.tile(np.arange(4), npart), nsupp)),
        "ps_availqty": (DataType.INT64, rng.integers(
            1, 10_000, size=npartsupp)),
        "ps_supplycost": (DataType.FLOAT64, np.round(
            rng.uniform(1.0, 1000.0, size=npartsupp), 2)),
        "ps_comment": (DataType.STRING, _comments(rng, npartsupp, 4)),
    })

    # orders + lineitem, generated together so o_orderstatus and
    # o_totalprice are consistent with the order's lines.
    o_custkey = rng.integers(1, ncust + 1, size=norders)
    o_orderdate = rng.integers(start, end - 151, size=norders)
    o_priority = rng.integers(0, len(_PRIORITIES), size=norders)
    nclerks = max(norders // 15, 2)
    o_clerk = rng.integers(1, nclerks, size=norders)
    o_comment = _comments(rng, norders, 4)
    # ~5% of comments match Q13's '%special%requests%' exclusion.
    special = rng.choice(norders, size=max(norders // 20, 1),
                         replace=False)
    words = _words(rng, len(special), 2)
    o_comment[special] = _cat(words[:, 0], " special ", words[:, 1],
                              " requests")
    nlines = rng.integers(1, 8, size=norders)

    (partkey, which, quantity, discount, tax, shipdays, commitdays,
     receiptdays, instruction, mode, coin, word1, word2) = \
        _lineitem_draws(rng, nlines, npart)
    partkey = partkey.copy()  # as a row view it would keep all 13 alive
    first = np.cumsum(nlines) - nlines
    order = np.repeat(np.arange(norders), nlines)
    current = (CURRENT_DATE - epoch).days
    quantity = quantity.astype(np.float64)
    # qty * (k / 100) lies a few ulps from a whole number of cents, so
    # np.round and Python's round both give the double nearest it.
    price = np.round(quantity * _retail_price(partkey), 2)
    discount = np.round(discount / 100.0, 2)
    tax = np.round(tax / 100.0, 2)
    orderdate = o_orderdate[order]
    shipdate = orderdate + shipdays
    receiptdate = shipdate + receiptdays
    shipped = shipdate <= current  # l_linestatus "F", else "O"

    # An order's total folds its lines left to right, as a Python loop
    # over them would; only that total goes through Python's round.
    term = price * (1 + tax) * (1 - discount)
    total = np.zeros(norders)
    for j in range(int(nlines.max())):
        has = nlines > j
        total[has] += term[first[has] + j]
    nshipped = np.add.reduceat(shipped.astype(np.int64), first)
    status = np.where(nshipped == nlines, 0, np.where(nshipped == 0, 1, 2))

    tables["orders"] = _table("orders", {
        "o_orderkey": (DataType.INT64, np.arange(1, norders + 1)),
        "o_custkey": (DataType.INT64, o_custkey),
        "o_orderstatus": (DataType.STRING, _STATUS[status]),
        "o_totalprice": (DataType.FLOAT64, np.array(
            [round(t, 2) for t in total.tolist()])),
        "o_orderdate": (DataType.DATE, o_orderdate),
        "o_orderpriority": (DataType.STRING,
                            _strings(_PRIORITIES)[o_priority]),
        "o_clerk": (DataType.STRING, _strings(
            [f"Clerk#{c:09d}" for c in range(nclerks)])[o_clerk]),
        "o_shippriority": (DataType.INT64, np.zeros(norders, np.int64)),
        "o_comment": (DataType.STRING, o_comment),
    })
    tables["lineitem"] = _table("lineitem", {
        "l_orderkey": (DataType.INT64, order + 1),
        "l_partkey": (DataType.INT64, partkey),
        "l_suppkey": (DataType.INT64, _suppliers(partkey, which, nsupp)),
        "l_linenumber": (DataType.INT64,
                         np.arange(len(order)) - first[order] + 1),
        "l_quantity": (DataType.FLOAT64, quantity),
        "l_extendedprice": (DataType.FLOAT64, price),
        "l_discount": (DataType.FLOAT64, discount),
        "l_tax": (DataType.FLOAT64, tax),
        "l_returnflag": (DataType.STRING, _FLAGS[
            np.where(receiptdate <= current, coin, 2)]),
        "l_linestatus": (DataType.STRING,
                         _STATUS[np.where(shipped, 0, 1)]),
        "l_shipdate": (DataType.DATE, shipdate),
        "l_commitdate": (DataType.DATE, orderdate + commitdays),
        "l_receiptdate": (DataType.DATE, receiptdate),
        "l_shipinstruct": (DataType.STRING,
                           _strings(_INSTRUCTIONS)[instruction]),
        "l_shipmode": (DataType.STRING, _strings(_MODES)[mode]),
        "l_comment": (DataType.STRING,
                      _cat(_WORDS[word1], " ", _WORDS[word2])),
    })
    return tables


def tpch_catalog(scale_factor: float = 0.01,
                 seed: int = 2022) -> Catalog:
    """A :class:`Catalog` over :func:`tpch_tables` output."""
    return Catalog(dict(tpch_tables(scale_factor, seed)))
