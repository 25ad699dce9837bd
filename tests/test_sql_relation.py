"""Late materialisation of :class:`repro.sql.expr.Relation`: ``take``
composes row indexes, a column is gathered when first read and only
then, and a LEFT JOIN's NULL extension is an index of -1."""

import numpy as np
import pytest

from repro.sql import Catalog, execute
from repro.sql import expr as expr_module
from repro.sql.expr import Relation
from repro.sql.vector import Vector
from repro.table import DataType, Table
from repro.tpch import tpch_tables


def _ints(values):
    valid = np.array([v is not None for v in values], dtype=np.bool_)
    data = np.array([0 if v is None else v for v in values], dtype=np.int64)
    return Vector(data, valid, DataType.INT64)


def _strings(values):
    valid = np.array([v is not None for v in values], dtype=np.bool_)
    data = np.array(["" if v is None else v for v in values], dtype=object)
    return Vector(data, valid, DataType.STRING)


def _python(relation, i):
    vector = relation.column(i)
    return [vector.python_value(row) for row in range(len(vector))]


@pytest.fixture
def gathers(monkeypatch):
    """Every gather a relation makes, as the base vector it read."""
    seen = []
    original = expr_module._gather

    def spy(base, rows, extended):
        seen.append(base)
        return original(base, rows, extended)

    monkeypatch.setattr(expr_module, "_gather", spy)
    return seen


def test_take_of_a_take_composes():
    relation = Relation([_ints([10, 11, 12, 13]), _strings(["a", None,
                                                            "c", "d"])],
                        [(None, "x"), (None, "s")])
    twice = relation.take(np.array([3, 1, 2])).take(np.array([2, 0, 0]))
    assert twice.n == 3
    assert _python(twice, 0) == [12, 13, 13]
    assert _python(twice, 1) == ["c", "d", "d"]


def test_take_after_null_extension_keeps_the_nulls():
    left = Relation([_ints([1, 2, 3])], [("l", "x")])
    right = Relation([_ints([7, None]), _strings(["p", "q"])],
                     [("r", "y"), ("r", "s")])
    joined = left.take(np.array([0, 1, 2])).concat_columns(
        right.take(np.array([1, -1, 0])))
    assert _python(joined, 1) == [None, None, 7]
    assert _python(joined, 2) == ["q", None, "p"]
    # a take of the extended relation keeps -1 rows NULL
    again = joined.take(np.array([1, 2, 1]))
    assert _python(again, 0) == [2, 3, 2]
    assert _python(again, 1) == [None, 7, None]
    assert _python(again, 2) == [None, "p", None]


def test_null_extension_against_an_empty_side():
    left = Relation([_ints([1, 2])], [("l", "x")])
    empty = Relation([_ints([]), _strings([])], [("r", "y"), ("r", "s")])
    joined = left.concat_columns(empty.take(np.array([-1, -1])))
    assert joined.n == 2
    assert _python(joined, 1) == [None, None]
    assert _python(joined, 2) == [None, None]
    assert joined.column(2).dtype is DataType.STRING
    assert _python(joined.take(np.array([1])), 1) == [None]


def test_left_join_in_sql_with_an_empty_right_side():
    catalog = Catalog({
        "a": Table.from_dict({"x": (DataType.INT64, [1, 2, None])}),
        "b": Table.from_dict({"x": (DataType.INT64, []),
                              "s": (DataType.STRING, [])})})
    rows = execute("select a.x, b.x, b.s from a left join b on a.x = b.x "
                   "where a.x is not null order by a.x desc", catalog)
    assert rows.to_rows() == [(2, None, None), (1, None, None)]


def test_a_column_read_twice_is_gathered_once(gathers):
    relation = Relation([_ints([5, 6, 7]), _ints([1, 2, 3])],
                        [(None, "x"), (None, "y")])
    taken = relation.take(np.array([2, 0]))
    assert gathers == []
    first = taken.column(0)
    assert taken.column(0) is first
    assert len(gathers) == 1
    # the gathered column is what a later take reads from
    assert _python(taken.take(np.array([1])), 0) == [5]
    assert len(gathers) == 2
    assert _python(taken, 1) == [3, 1]
    assert len(gathers) == 3


def test_vectors_is_read_only():
    relation = Relation([_ints([1])], [(None, "x")])
    assert isinstance(relation.vectors, tuple)
    with pytest.raises(AttributeError):
        relation.vectors.append(_ints([2]))


def test_join_and_project_gather_only_the_columns_read(gathers):
    tables = tpch_tables(0.002, 2022)
    lineitem = tables["lineitem"]
    assert lineitem.num_columns == 16
    catalog = Catalog(dict(tables))
    result = execute(
        "select l.l_extendedprice, p.p_name from lineitem as l "
        "join part as p on p.p_partkey = l.l_partkey "
        "where l.l_quantity < 5", catalog)
    assert result.num_rows > 0
    names = {id(column): name for table in ("lineitem", "part")
             for name, column in zip(
                 (f.name for f in tables[table].schema),
                 tables[table].columns)}
    read = sorted(names[id(base.source)] for base in gathers
                  if base.source is not None)
    # Of the 16 + 9 scanned columns only those the statement names are
    # gathered, each once: the join key after the filter narrowed
    # lineitem, the projected pair after the join. The filter column
    # and part's key are read where no index applies yet.
    assert read == ["l_extendedprice", "l_partkey", "p_name"]
