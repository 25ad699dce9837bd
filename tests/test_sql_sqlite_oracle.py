"""Joins with OR-of-AND predicates against stdlib ``sqlite3``.

Hypothesis draws two- and three-table INNER and LEFT joins over small
tables with NULL-bearing INT64 and STRING columns. Their WHERE and ON
clauses are ORs of ANDs that share some conjuncts, plus a LIKE, so
the planner's OR factoring, implied-predicate pushdown and the
executor's late-materialised joins all run; sqlite3 is the independent
oracle. Results are compared as multisets, and row for row where the
ORDER BY fixes the order.
"""

import sqlite3
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import Catalog, execute
from repro.table import DataType, Table

#: table -> (INT64 column, INT64 column, STRING column)
TABLES = {"t1": ("a", "b", "s"), "t2": ("a", "c", "u"),
          "t3": ("c", "d", "v")}
INTS = st.one_of(st.none(), st.integers(0, 2))
STRS = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"]))
ROWS = st.lists(st.tuples(INTS, INTS, STRS), min_size=1, max_size=6)


def _single(table):
    """Predicates over one table."""
    i, j, s = TABLES[table]
    return [f"{table}.{i} = 1", f"{table}.{j} < 2", f"{table}.{i} IS NULL",
            f"{table}.{j} IS NOT NULL", f"{table}.{s} = 'a'",
            f"{table}.{s} LIKE 'a%'", f"{table}.{j} >= {table}.{i}"]


def _cross(tables):
    """Predicates over two of ``tables``."""
    out = ["t1.a = t2.a", "t1.b < t2.c", "t1.s = t2.u"]
    if "t3" in tables:
        out += ["t2.c = t3.c", "t1.b <> t3.d"]
    return out


@st.composite
def or_of_ands(draw, tables):
    """``(C AND x1) OR (C AND x2) ...`` with shared conjuncts ``C``.
    A branch mostly holds one predicate per table, so the OR reads
    several tables and each has an implied predicate to derive; the
    branch's conjuncts are shuffled."""
    every = [atom for t in tables for atom in _single(t)] + _cross(tables)
    shared = draw(st.lists(st.sampled_from(every), max_size=2))
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        own = [draw(st.sampled_from(_single(t))) for t in tables
               if draw(st.booleans())]
        if draw(st.integers(0, 3)) == 0:
            own.append(draw(st.sampled_from(_cross(tables))))
        terms = draw(st.permutations(shared + own)) or ["1 = 1"]
        branches.append("(" + " AND ".join(terms) + ")")
    predicate = " OR ".join(branches)
    if draw(st.booleans()):
        predicate = f"({predicate}) AND {draw(st.sampled_from(every))}"
    return predicate


@st.composite
def statements(draw):
    three = draw(st.booleans())
    kinds = [draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
             for _ in range(2 if three else 1)]
    sql_from = f"t1 {kinds[0]} t2 ON {draw(or_of_ands(['t1', 't2']))}"
    columns = ["t1.a", "t1.s", "t2.c", "t2.u"]
    tables = ["t1", "t2"]
    if three:
        tables.append("t3")
        sql_from += f" {kinds[1]} t3 ON {draw(or_of_ands(tables))}"
        columns += ["t3.d", "t3.v"]
    where = ""
    if draw(st.integers(0, 3)):
        where = f" WHERE {draw(or_of_ands(tables))}"
    ordered = draw(st.booleans())
    order = ""
    if ordered:
        order = " ORDER BY " + ", ".join(f"{c} NULLS LAST" for c in columns)
    return (f"SELECT {', '.join(columns)} FROM {sql_from}{where}{order}",
            ordered)


def _run_sqlite(data, sql):
    db = sqlite3.connect(":memory:")
    try:
        db.execute("PRAGMA case_sensitive_like = ON")
        for table, (i, j, s) in TABLES.items():
            db.execute(f"CREATE TABLE {table} ({i} INTEGER, {j} INTEGER, "
                       f"{s} TEXT)")
            db.executemany(f"INSERT INTO {table} VALUES (?, ?, ?)",
                           data[table])
        return [tuple(row) for row in db.execute(sql)]
    finally:
        db.close()


def _catalog(data):
    return Catalog({
        table: Table.from_dict({
            i: (DataType.INT64, [r[0] for r in data[table]]),
            j: (DataType.INT64, [r[1] for r in data[table]]),
            s: (DataType.STRING, [r[2] for r in data[table]])})
        for table, (i, j, s) in TABLES.items()})


@settings(deadline=None)
@given(st.fixed_dictionaries({t: ROWS for t in TABLES}), statements())
def test_joins_with_or_predicates_match_sqlite(data, statement):
    sql, ordered = statement
    expected = _run_sqlite(data, sql)
    rows = execute(sql, _catalog(data)).to_rows()
    if ordered:
        assert rows == expected, sql
    else:
        assert Counter(rows) == Counter(expected), sql
