"""Columnar value vectors and vectorised SQL expression semantics.

A :class:`Vector` is the executor's unit of data flow: values + validity
mask + SQL type. ``values`` is always an ndarray — int64 / float64 /
bool, or ``dtype=object`` holding ``str`` for STRING — so a gather is
one fancy index and a comparison one ufunc whatever the type; NULL
slots hold a placeholder of the right type (0, ``""``). Arithmetic,
comparisons and three-valued boolean logic propagate SQL NULL
throughout. Dates compute as day numbers (DATE + INT = DATE,
DATE - DATE = INT days), mirroring the engine's physical representation.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import SqlAnalysisError
from repro.table.column import Column, DataType, date_to_ordinal


@dataclass
class Vector:
    values: np.ndarray       # int64 / float64 / bool, or object (str)
    validity: np.ndarray
    dtype: DataType
    #: The column :func:`from_column` read (None for computed vectors).
    source: Optional[Column] = field(default=None, repr=False,
                                     compare=False)

    def __len__(self) -> int:
        return len(self.validity)

    def source_column(self) -> Optional[Column]:
        """The column :func:`from_column` read, while the vector still
        holds exactly its data (None otherwise) — so a query-local
        reader reuses the column's memoised fingerprint. It is shared,
        not copied: a result must take :meth:`to_column` instead, or
        appending to either side would reach the other."""
        source = self.source
        if (source is not None and self.values is source.array()
                and self.validity is source.validity):
            return source
        return None

    def to_column(self) -> Column:
        """A column of the vector's values that the caller owns."""
        if self.dtype.numpy_dtype is not None:
            return Column.from_numpy(self.dtype, self.values, self.validity)
        # The table layer keeps its list-backed string columns.
        return Column(self.dtype,
                      np.where(self.validity, self.values, None).tolist())

    def python_value(self, row: int) -> Any:
        """The row's value as a plain Python object (None for NULL)."""
        if not self.validity[row]:
            return None
        value = self.values[row]
        if self.dtype is DataType.DATE:
            return datetime.date(1970, 1, 1) + datetime.timedelta(
                days=int(value))
        if isinstance(value, np.generic):
            return value.item()
        return value

    def take(self, rows: np.ndarray) -> "Vector":
        rows = np.asarray(rows, dtype=np.int64)
        return Vector(self.values[rows], self.validity[rows], self.dtype)


def from_column(column: Column) -> Vector:
    """The column's data, shared: nothing in the engine writes into a
    vector's arrays, it derives new ones."""
    return Vector(column.array(), column.validity, column.dtype,
                  source=column)


def repeated(value: Any, n: int, dtype: Any) -> np.ndarray:
    """``np.full(n, value, dtype)`` — which for ``dtype=object`` measured
    16x slower than filling an empty array (3.7 ms vs 0.23 at n = 60 000)."""
    out = np.empty(n, dtype=dtype)
    out.fill(value)
    return out


def null_values(dtype: DataType, n: int) -> np.ndarray:
    """``n`` NULL-slot placeholders in ``dtype``'s storage."""
    if dtype.numpy_dtype is None:
        return repeated("", n, object)
    return np.zeros(n, dtype=dtype.numpy_dtype)


def _check_comparable(a: Vector, b: Vector) -> None:
    if (a.dtype is DataType.STRING) != (b.dtype is DataType.STRING):
        raise SqlAnalysisError("cannot compare string to non-string")


def stacked(a: Vector, b: Vector) -> Vector:
    """``a``'s rows followed by ``b``'s, typed the way ``a = b``
    compares them (int with float as float, dates as day numbers)."""
    _check_comparable(a, b)
    return Vector(np.concatenate([a.values, b.values]),
                  np.concatenate([a.validity, b.validity]), a.dtype)


def from_scalar(value: Any, n: int) -> Vector:
    """Broadcast a Python literal to an n-row vector."""
    if value is None:
        return Vector(np.zeros(n, dtype=np.float64),
                      np.zeros(n, dtype=np.bool_), DataType.FLOAT64)
    if isinstance(value, bool):
        return Vector(np.full(n, value, dtype=np.bool_),
                      np.ones(n, dtype=np.bool_), DataType.BOOL)
    if isinstance(value, int):
        return Vector(np.full(n, value, dtype=np.int64),
                      np.ones(n, dtype=np.bool_), DataType.INT64)
    if isinstance(value, float):
        return Vector(np.full(n, value, dtype=np.float64),
                      np.ones(n, dtype=np.bool_), DataType.FLOAT64)
    if isinstance(value, datetime.date):
        return Vector(np.full(n, date_to_ordinal(value), dtype=np.int64),
                      np.ones(n, dtype=np.bool_), DataType.DATE)
    if isinstance(value, str):
        return Vector(repeated(value, n, object),
                      np.ones(n, dtype=np.bool_), DataType.STRING)
    raise SqlAnalysisError(f"unsupported literal {value!r}")


def _both_valid(a: Vector, b: Vector) -> np.ndarray:
    return a.validity & b.validity


_NUMERIC = (DataType.INT64, DataType.FLOAT64)


def _numeric_pair(a: Vector, b: Vector, op: str):
    if a.dtype not in _NUMERIC or b.dtype not in _NUMERIC:
        raise SqlAnalysisError(
            f"operator {op!r} expects numeric operands, got "
            f"{a.dtype.value} and {b.dtype.value}")


def arithmetic(op: str, a: Vector, b: Vector) -> Vector:
    """``+ - * / %`` with SQL date arithmetic."""
    validity = _both_valid(a, b)
    # date semantics
    if op in ("+", "-") and (a.dtype is DataType.DATE
                             or b.dtype is DataType.DATE):
        return _date_arithmetic(op, a, b, validity)
    _numeric_pair(a, b, op)
    left = np.asarray(a.values)
    right = np.asarray(b.values)
    int_inputs = (a.dtype is DataType.INT64 and b.dtype is DataType.INT64)
    if op == "+":
        values = left + right
    elif op == "-":
        values = left - right
    elif op == "*":
        values = left * right
    elif op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            values = left / np.where(right == 0, 1, right)
        validity = validity & (np.asarray(b.values) != 0)
        return Vector(values.astype(np.float64), validity, DataType.FLOAT64)
    elif op == "%":
        safe = np.where(right == 0, 1, right)
        values = np.mod(left, safe)
        validity = validity & (right != 0)
    else:
        raise SqlAnalysisError(f"unknown arithmetic operator {op!r}")
    dtype = DataType.INT64 if int_inputs and op != "/" else DataType.FLOAT64
    return Vector(values.astype(np.int64 if dtype is DataType.INT64
                                else np.float64), validity, dtype)


def _date_arithmetic(op: str, a: Vector, b: Vector,
                     validity: np.ndarray) -> Vector:
    left = np.asarray(a.values, dtype=np.int64)
    right = np.asarray(b.values, dtype=np.int64)
    if a.dtype is DataType.DATE and b.dtype is DataType.DATE:
        if op != "-":
            raise SqlAnalysisError("dates support only date - date")
        return Vector(left - right, validity, DataType.INT64)
    if a.dtype is DataType.DATE and b.dtype is DataType.INT64:
        values = left + right if op == "+" else left - right
        return Vector(values, validity, DataType.DATE)
    if b.dtype is DataType.DATE and a.dtype is DataType.INT64 and op == "+":
        return Vector(left + right, validity, DataType.DATE)
    raise SqlAnalysisError(
        f"unsupported date arithmetic {a.dtype.value} {op} {b.dtype.value}")


def concat(a: Vector, b: Vector) -> Vector:
    validity = _both_valid(a, b)
    out = [str(left) + str(right) if valid else "" for left, right, valid
           in zip(a.values.tolist(), b.values.tolist(), validity.tolist())]
    return Vector(np.array(out, dtype=object), validity, DataType.STRING)


def comparison(op: str, a: Vector, b: Vector) -> Vector:
    validity = _both_valid(a, b)
    _check_comparable(a, b)
    left = a.values
    right = b.values
    if op == "=":
        result = left == right
    elif op == "<>":
        result = left != right
    elif op == "<":
        result = left < right
    elif op == "<=":
        result = left <= right
    elif op == ">":
        result = left > right
    elif op == ">=":
        result = left >= right
    else:
        raise SqlAnalysisError(f"unknown comparison {op!r}")
    return Vector(np.asarray(result, dtype=np.bool_), validity, DataType.BOOL)


def logical_and(a: Vector, b: Vector) -> Vector:
    """Kleene AND: false dominates NULL."""
    av = np.asarray(a.values, dtype=np.bool_)
    bv = np.asarray(b.values, dtype=np.bool_)
    false_a = a.validity & ~av
    false_b = b.validity & ~bv
    result = av & bv & a.validity & b.validity
    validity = (a.validity & b.validity) | false_a | false_b
    return Vector(result, validity, DataType.BOOL)


def logical_or(a: Vector, b: Vector) -> Vector:
    """Kleene OR: true dominates NULL."""
    av = np.asarray(a.values, dtype=np.bool_)
    bv = np.asarray(b.values, dtype=np.bool_)
    true_a = a.validity & av
    true_b = b.validity & bv
    result = (av & a.validity) | (bv & b.validity)
    validity = (a.validity & b.validity) | true_a | true_b
    return Vector(result, validity, DataType.BOOL)


def logical_not(a: Vector) -> Vector:
    return Vector(~np.asarray(a.values, dtype=np.bool_), a.validity.copy(),
                  DataType.BOOL)


def negate(a: Vector) -> Vector:
    if a.dtype not in _NUMERIC:
        raise SqlAnalysisError("unary minus expects a numeric operand")
    return Vector(-np.asarray(a.values), a.validity.copy(), a.dtype)


def truthy_rows(v: Vector) -> np.ndarray:
    """Row mask where the boolean vector is TRUE (NULL counts as false)."""
    return np.asarray(v.values, dtype=np.bool_) & v.validity


def cast(v: Vector, type_name: str) -> Vector:
    type_name = type_name.lower()
    if type_name in ("int", "integer", "bigint", "int64"):
        if v.dtype is DataType.STRING:
            values = np.zeros(len(v), dtype=np.int64)
            validity = v.validity.copy()
            for i in np.flatnonzero(validity):
                try:
                    values[i] = int(v.values[i])
                except ValueError:
                    validity[i] = False
            return Vector(values, validity, DataType.INT64)
        return Vector(np.asarray(v.values).astype(np.int64),
                      v.validity.copy(), DataType.INT64)
    if type_name in ("float", "double", "real", "float64"):
        return Vector(np.asarray(v.values).astype(np.float64),
                      v.validity.copy(), DataType.FLOAT64)
    if type_name in ("varchar", "text", "string"):
        out = [str(v.python_value(i)) if v.validity[i] else ""
               for i in range(len(v))]
        return Vector(np.array(out, dtype=object), v.validity.copy(),
                      DataType.STRING)
    raise SqlAnalysisError(f"unsupported cast target {type_name!r}")
