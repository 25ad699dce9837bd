"""Vectorised SQL value semantics: arithmetic, comparisons, NULL logic."""

import datetime

import numpy as np
import pytest

from repro.errors import SqlAnalysisError
from repro.sql.vector import (
    arithmetic,
    cast,
    comparison,
    concat,
    from_column,
    from_scalar,
    logical_and,
    logical_not,
    logical_or,
    negate,
    truthy_rows,
)
from repro.table.column import Column, DataType


def vec(values, dtype=DataType.INT64):
    return from_column(Column(dtype, values))


class TestArithmetic:
    def test_int_ops(self):
        a, b = vec([7, 8]), vec([2, 3])
        assert arithmetic("+", a, b).values.tolist() == [9, 11]
        assert arithmetic("-", a, b).values.tolist() == [5, 5]
        assert arithmetic("*", a, b).values.tolist() == [14, 24]
        assert arithmetic("%", a, b).values.tolist() == [1, 2]
        assert arithmetic("+", a, b).dtype is DataType.INT64

    def test_division_is_float(self):
        out = arithmetic("/", vec([7]), vec([2]))
        assert out.dtype is DataType.FLOAT64
        assert out.values[0] == pytest.approx(3.5)

    def test_division_by_zero_is_null(self):
        out = arithmetic("/", vec([7]), vec([0]))
        assert not out.validity[0]
        out = arithmetic("%", vec([7]), vec([0]))
        assert not out.validity[0]

    def test_null_propagation(self):
        out = arithmetic("+", vec([1, None]), vec([2, 2]))
        assert out.validity.tolist() == [True, False]

    def test_date_arithmetic(self):
        d = vec([datetime.date(2020, 1, 10)], DataType.DATE)
        days = vec([5])
        plus = arithmetic("+", d, days)
        assert plus.dtype is DataType.DATE
        assert plus.python_value(0) == datetime.date(2020, 1, 15)
        minus = arithmetic("-", d, days)
        assert minus.python_value(0) == datetime.date(2020, 1, 5)
        d2 = vec([datetime.date(2020, 2, 1)], DataType.DATE)
        diff = arithmetic("-", d2, d)
        assert diff.dtype is DataType.INT64
        assert diff.values[0] == 22

    def test_date_times_date_rejected(self):
        d = vec([datetime.date(2020, 1, 1)], DataType.DATE)
        with pytest.raises(SqlAnalysisError):
            arithmetic("*", d, d)
        with pytest.raises(SqlAnalysisError):
            arithmetic("+", d, d)

    def test_string_arithmetic_rejected(self):
        with pytest.raises(SqlAnalysisError):
            arithmetic("+", vec(["a"], DataType.STRING), vec([1]))


class TestComparison:
    def test_numeric(self):
        a, b = vec([1, 2, 3]), vec([2, 2, 2])
        assert comparison("<", a, b).values.tolist() == [True, False, False]
        assert comparison("=", a, b).values.tolist() == [False, True, False]
        assert comparison(">=", a, b).values.tolist() == [False, True, True]
        assert comparison("<>", a, b).values.tolist() == [True, False, True]

    def test_strings(self):
        a = vec(["apple", "pear"], DataType.STRING)
        b = vec(["banana", "pear"], DataType.STRING)
        assert comparison("<", a, b).values.tolist() == [True, False]
        assert comparison("=", a, b).values.tolist() == [False, True]

    def test_string_vs_number_rejected(self):
        with pytest.raises(SqlAnalysisError):
            comparison("=", vec(["x"], DataType.STRING), vec([1]))

    def test_null_comparison_is_null(self):
        out = comparison("=", vec([None]), vec([1]))
        assert not out.validity[0]


class TestLogic:
    def test_kleene_and(self):
        true = vec([True], DataType.BOOL)
        false = vec([False], DataType.BOOL)
        null = vec([None], DataType.BOOL)
        assert truthy_rows(logical_and(true, true)).tolist() == [True]
        assert truthy_rows(logical_and(true, false)).tolist() == [False]
        # NULL AND FALSE = FALSE (valid), NULL AND TRUE = NULL
        out = logical_and(null, false)
        assert out.validity[0] and not out.values[0]
        out = logical_and(null, true)
        assert not out.validity[0]

    def test_kleene_or(self):
        true = vec([True], DataType.BOOL)
        null = vec([None], DataType.BOOL)
        out = logical_or(null, true)
        assert out.validity[0] and out.values[0]
        out = logical_or(null, vec([False], DataType.BOOL))
        assert not out.validity[0]

    def test_not(self):
        out = logical_not(vec([True, None], DataType.BOOL))
        assert out.values.tolist()[0] is False or not out.values[0]
        assert out.validity.tolist() == [True, False]

    def test_negate(self):
        assert negate(vec([3])).values.tolist() == [-3]
        with pytest.raises(SqlAnalysisError):
            negate(vec(["x"], DataType.STRING))


class TestMisc:
    def test_concat(self):
        out = concat(vec(["a", None], DataType.STRING),
                     vec(["b", "c"], DataType.STRING))
        assert out.values[0] == "ab"
        assert not out.validity[1]

    def test_from_scalar_types(self):
        assert from_scalar(1, 2).dtype is DataType.INT64
        assert from_scalar(1.5, 2).dtype is DataType.FLOAT64
        assert from_scalar("s", 2).dtype is DataType.STRING
        assert from_scalar(True, 2).dtype is DataType.BOOL
        assert from_scalar(datetime.date(2020, 1, 1), 1).dtype \
            is DataType.DATE
        null = from_scalar(None, 3)
        assert not null.validity.any()

    def test_cast(self):
        assert cast(vec([1.9], DataType.FLOAT64), "int").values[0] == 1
        assert cast(vec([3]), "double").dtype is DataType.FLOAT64
        assert cast(vec([3]), "varchar").values[0] == "3"
        out = cast(vec(["12", "oops"], DataType.STRING), "int")
        assert out.values[0] == 12 and not out.validity[1]
        with pytest.raises(SqlAnalysisError):
            cast(vec([1]), "blob")

    def test_to_column_roundtrip(self):
        v = vec([1, None, 3])
        assert v.to_column().to_list() == [1, None, 3]
        # Strings travel as an object ndarray and leave as the table
        # layer's list-backed column.
        s = vec(["a", None, "c"], DataType.STRING)
        assert isinstance(s.values, np.ndarray) and s.values.dtype == object
        column = s.to_column()
        assert isinstance(column.raw(), list)
        assert column.to_list() == ["a", None, "c"]

    def test_take(self):
        v = vec(["a", "b", "c"], DataType.STRING)
        assert v.take(np.array([2, 0])).values.tolist() == ["c", "a"]

    def test_string_storage_is_built_once_per_column(self):
        column = Column(DataType.STRING, ["a", "b"])
        assert from_column(column).values is from_column(column).values
        column.append("c")  # growing the column drops the cached array
        assert from_column(column).values.tolist() == ["a", "b", "c"]
