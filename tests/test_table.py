"""Columnar table substrate: columns, schemas, tables, CSV."""

import datetime
import pickle

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.table import Column, DataType, Field, Schema, Table
from repro.table.column import date_to_ordinal, ordinal_to_date
from repro.table.csvio import read_csv, write_csv


class TestColumn:
    def test_int_column(self):
        col = Column(DataType.INT64, [1, 2, None, 4])
        assert len(col) == 4
        assert col[0] == 1
        assert col[2] is None
        assert col.null_count == 1
        assert col.to_list() == [1, 2, None, 4]

    def test_type_enforcement(self):
        col = Column(DataType.INT64)
        with pytest.raises(TypeMismatchError):
            col.append("nope")
        with pytest.raises(TypeMismatchError):
            col.append(1.5)
        with pytest.raises(TypeMismatchError):
            col.append(True)  # bools are not ints in SQL
        with pytest.raises(TypeMismatchError):
            Column(DataType.STRING, [42])
        with pytest.raises(TypeMismatchError):
            Column(DataType.BOOL, [1])

    def test_float_accepts_ints(self):
        col = Column(DataType.FLOAT64, [1, 2.5])
        assert col.to_list() == [1.0, 2.5]

    def test_date_roundtrip(self):
        day = datetime.date(2022, 6, 12)  # SIGMOD '22
        col = Column(DataType.DATE, [day, None])
        assert col[0] == day
        assert col[1] is None
        assert col.physical(0) == date_to_ordinal(day)
        assert ordinal_to_date(date_to_ordinal(day)) == day

    def test_from_numpy(self):
        col = Column.from_numpy(DataType.INT64, np.arange(5))
        assert col.to_list() == [0, 1, 2, 3, 4]
        with pytest.raises(TypeMismatchError):
            Column.from_numpy(DataType.STRING, np.arange(3))
        with pytest.raises(TypeMismatchError):
            Column.from_numpy(DataType.INT64, np.arange(3),
                              valid=np.array([True]))

    def test_from_numpy_takes_the_canonical_dtype(self):
        """An unpickled array's dtype equals float64 but is another
        instance; the column must hold the canonical one, and sum the
        same under GROUP BY."""
        from repro.sql import Catalog, execute
        rng = np.random.default_rng(7)
        values = rng.random(500)
        unpickled = pickle.loads(pickle.dumps(values))
        assert unpickled.dtype is not np.dtype(np.float64)
        col = Column.from_numpy(DataType.FLOAT64, unpickled)
        assert col.raw().dtype is np.dtype(np.float64)
        groups = Column.from_numpy(DataType.INT64,
                                   rng.integers(0, 7, size=500))
        schema = Schema([Field("g", DataType.INT64),
                         Field("x", DataType.FLOAT64)])
        sql = "SELECT g, sum(x) FROM t GROUP BY g ORDER BY g"

        def grouped_sums(x):
            table = Table.from_columns(schema, [groups, x], name="t")
            return execute(sql, Catalog({"t": table})).to_rows()

        assert grouped_sums(col) == grouped_sums(
            Column.from_numpy(DataType.FLOAT64, values))

    def test_take(self):
        col = Column(DataType.STRING, ["a", None, "c"])
        taken = col.take([2, 0])
        assert taken.to_list() == ["c", "a"]

    def test_slice_and_iter(self):
        col = Column(DataType.INT64, [10, 20, 30])
        assert col[0:2] == [10, 20]
        assert list(col) == [10, 20, 30]

    def test_equality_and_repr(self):
        a = Column(DataType.INT64, [1, 2])
        b = Column(DataType.INT64, [1, 2])
        assert a == b
        assert "Column" in repr(a)


class TestSchema:
    def test_lookup(self):
        schema = Schema.of(("A", DataType.INT64), ("b", DataType.STRING))
        assert schema.index_of("a") == 0
        assert schema.index_of("B") == 1
        assert "a" in schema and "missing" not in schema
        assert schema.names() == ["A", "b"]

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(("x", DataType.INT64), ("X", DataType.INT64))

    def test_missing_column(self):
        schema = Schema.of(("x", DataType.INT64))
        with pytest.raises(SchemaError):
            schema.index_of("y")


class TestTable:
    def _table(self):
        return Table.from_dict({
            "id": (DataType.INT64, [1, 2, 3]),
            "name": (DataType.STRING, ["x", "y", None]),
        }, name="t")

    def test_from_rows(self):
        schema = Schema.of(("a", DataType.INT64), ("b", DataType.FLOAT64))
        table = Table.from_rows(schema, [(1, 1.5), (2, None)])
        assert table.num_rows == 2
        assert table.row(1) == (2, None)

    def test_row_width_checked(self):
        schema = Schema.of(("a", DataType.INT64))
        table = Table(schema)
        with pytest.raises(SchemaError):
            table.append_row((1, 2))

    def test_mismatched_columns_rejected(self):
        schema = Schema.of(("a", DataType.INT64), ("b", DataType.INT64))
        with pytest.raises(SchemaError):
            Table.from_columns(schema, [Column(DataType.INT64, [1])])
        with pytest.raises(SchemaError):
            Table.from_columns(schema, [Column(DataType.INT64, [1]),
                                        Column(DataType.INT64, [1, 2])])
        with pytest.raises(SchemaError):
            Table.from_columns(schema, [Column(DataType.INT64, [1]),
                                        Column(DataType.STRING, ["x"])])

    def test_take_select_filter(self):
        table = self._table()
        assert table.take([2, 0]).column("id").to_list() == [3, 1]
        assert table.select(["name"]).schema.names() == ["name"]
        filtered = table.filter([True, False, True])
        assert filtered.column("id").to_list() == [1, 3]

    def test_head_and_pretty(self):
        table = self._table()
        assert table.head(2).num_rows == 2
        text = table.pretty()
        assert "id" in text and "name" in text

    def test_equality(self):
        assert self._table() == self._table()

    def test_rows_iteration(self):
        assert list(self._table().rows()) == [(1, "x"), (2, "y"), (3, None)]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        schema = Schema.of(
            ("i", DataType.INT64), ("f", DataType.FLOAT64),
            ("s", DataType.STRING), ("d", DataType.DATE),
            ("b", DataType.BOOL))
        table = Table.from_rows(schema, [
            (1, 2.5, "hello", datetime.date(2020, 1, 1), True),
            (None, None, None, None, None),
            (-7, 0.0, "with,comma", datetime.date(1999, 12, 31), False),
        ])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path, schema)
        assert back.to_rows() == table.to_rows()

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError):
            read_csv(path, Schema.of(("a", DataType.INT64),
                                     ("b", DataType.INT64)))

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("b\ntrue\nf\n1\n")
        table = read_csv(path, Schema.of(("b", DataType.BOOL)))
        assert table.column("b").to_list() == [True, False, True]
        path.write_text("b\nmaybe\n")
        with pytest.raises(SchemaError):
            read_csv(path, Schema.of(("b", DataType.BOOL)))
