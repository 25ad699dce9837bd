"""Typed, nullable, columnar value storage.

A :class:`Column` stores a homogeneous vector of SQL values together with a
validity (non-NULL) mask. Numeric and date columns are numpy arrays so the
window algorithms can operate on them without per-row boxing; string
columns are plain Python lists.

Dates are stored as days-since-epoch ``int64`` values, which keeps RANGE
frames over dates a pure integer computation — the same trick Section 5.1
of the paper uses to reduce every ORDER BY key to integers.
"""

from __future__ import annotations

import datetime
import enum
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Union)

import numpy as np

from repro.errors import TypeMismatchError

_EPOCH = datetime.date(1970, 1, 1)


class DataType(enum.Enum):
    """The SQL types supported by the storage layer."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64)

    @property
    def numpy_dtype(self) -> Optional[np.dtype]:
        """The numpy dtype backing this type, or None for object storage."""
        mapping = {
            DataType.INT64: np.dtype(np.int64),
            DataType.FLOAT64: np.dtype(np.float64),
            DataType.DATE: np.dtype(np.int64),
            DataType.BOOL: np.dtype(np.bool_),
        }
        return mapping.get(self)


def infer_dtype(values: Iterable[Any]) -> DataType:
    """The narrowest type holding every non-NULL value (FLOAT64 when
    there is none) — for values whose type no schema fixes: scalar
    subquery results and user-defined aggregate states."""
    has_float = has_int = has_str = has_date = has_bool = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, (bool, np.bool_)):
            has_bool = True
        elif isinstance(value, (int, np.integer)):
            has_int = True
        elif isinstance(value, (float, np.floating)):
            has_float = True
        elif isinstance(value, str):
            has_str = True
        elif isinstance(value, datetime.date):
            has_date = True
        else:
            raise TypeMismatchError(
                f"cannot infer column type for value {value!r}")
    if has_str:
        return DataType.STRING
    if has_date:
        return DataType.DATE
    if has_float:
        return DataType.FLOAT64
    if has_int:
        return DataType.INT64
    if has_bool:
        return DataType.BOOL
    return DataType.FLOAT64


def date_to_ordinal(value: datetime.date) -> int:
    """Convert a date to its days-since-epoch integer representation."""
    return (value - _EPOCH).days


def ordinal_to_date(value: int) -> datetime.date:
    """Convert a days-since-epoch integer back to a date."""
    return _EPOCH + datetime.timedelta(days=int(value))


def _coerce(value: Any, dtype: DataType) -> Any:
    """Coerce a single Python value to the column's physical representation."""
    if dtype is DataType.INT64:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeMismatchError(f"expected int for INT64 column, got {value!r}")
        return int(value)
    if dtype is DataType.FLOAT64:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise TypeMismatchError(f"expected number for FLOAT64 column, got {value!r}")
        return float(value)
    if dtype is DataType.STRING:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected str for STRING column, got {value!r}")
        return value
    if dtype is DataType.DATE:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return date_to_ordinal(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        raise TypeMismatchError(f"expected date for DATE column, got {value!r}")
    if dtype is DataType.BOOL:
        if not isinstance(value, (bool, np.bool_)):
            raise TypeMismatchError(f"expected bool for BOOL column, got {value!r}")
        return bool(value)
    raise TypeMismatchError(f"unsupported data type {dtype}")


class Column:
    """A typed vector of values with an explicit NULL mask.

    The physical representation is ``(data, valid)`` where ``valid[i]`` is
    False for NULL entries. For numpy-backed types the data slot of a NULL
    holds an arbitrary placeholder (0); consumers must consult the mask.
    """

    def __init__(self, dtype: DataType, values: Optional[Iterable[Any]] = None) -> None:
        self.dtype = dtype
        self._np_dtype = dtype.numpy_dtype
        if self._np_dtype is not None:
            self._data: Any = np.empty(0, dtype=self._np_dtype)
        else:
            self._data = []
        self._valid = np.empty(0, dtype=np.bool_)
        self._array: Optional[np.ndarray] = None
        if values is not None:
            self.extend(values)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_numpy(cls, dtype: DataType, data: np.ndarray,
                   valid: Optional[np.ndarray] = None) -> "Column":
        """Wrap an existing numpy array without per-value validation
        (``dtype=object`` for a STRING column, kept as its
        :meth:`array` with NULL slots blanked)."""
        col = cls(dtype)
        if dtype.numpy_dtype is None:
            if getattr(data, "dtype", None) != object:
                raise TypeMismatchError(
                    f"{dtype} wraps only dtype=object arrays")
            if valid is not None:
                data = np.where(valid, data, "")
            col._array = data
            col._data = data.tolist()
        else:
            col._data = np.asarray(data, dtype=dtype.numpy_dtype)
            if col._data.dtype is not dtype.numpy_dtype:
                # An equal but distinct dtype instance (an unpickled
                # array's, say) sends np.add.at and friends off their
                # fast loops; a view restores the canonical one.
                col._data = col._data.view(dtype.numpy_dtype)
        if valid is None:
            col._valid = np.ones(len(col._data), dtype=np.bool_)
        else:
            valid = np.asarray(valid, dtype=np.bool_)
            if len(valid) != len(col._data):
                raise TypeMismatchError("validity mask length mismatch")
            col._valid = valid
        return col

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        """Append one value (``None`` means SQL NULL)."""
        self.extend([value])

    def extend(self, values: Iterable[Any]) -> None:
        """Append many values (``None`` entries mean SQL NULL)."""
        values = list(values)
        new_valid = np.empty(len(values), dtype=np.bool_)
        if self._np_dtype is not None:
            new_data = np.zeros(len(values), dtype=self._np_dtype)
            for i, value in enumerate(values):
                if value is None:
                    new_valid[i] = False
                else:
                    new_data[i] = _coerce(value, self.dtype)
                    new_valid[i] = True
            self._data = np.concatenate([self._data, new_data])
        else:
            for i, value in enumerate(values):
                if value is None:
                    new_valid[i] = False
                    self._data.append("")
                else:
                    self._data.append(_coerce(value, self.dtype))
                    new_valid[i] = True
        self._valid = np.concatenate([self._valid, new_valid])
        self._array = None  # stale: rebuilt on the next array()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._valid)

    def is_null(self, index: int) -> bool:
        return not bool(self._valid[index])

    @property
    def null_count(self) -> int:
        return int(len(self._valid) - np.count_nonzero(self._valid))

    @property
    def validity(self) -> np.ndarray:
        """The validity mask (True where non-NULL). Do not mutate."""
        return self._valid

    def raw(self) -> Any:
        """The underlying storage (numpy array or list). Do not mutate.

        NULL slots hold placeholder values; pair with :attr:`validity`.
        """
        return self._data

    def array(self) -> np.ndarray:
        """The storage as an ndarray, ``dtype=object`` for list-backed
        (string) columns — built on first use, kept until the column
        grows. Do not mutate."""
        if self._np_dtype is not None:
            return self._data
        array = self._array
        if array is None:
            array = self._array = np.array(self._data, dtype=object)
        return array

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if not self._valid[index]:
            return None
        value = self._data[index]
        if self.dtype is DataType.DATE:
            return ordinal_to_date(value)
        if self.dtype is DataType.INT64:
            return int(value)
        if self.dtype is DataType.FLOAT64:
            return float(value)
        if self.dtype is DataType.BOOL:
            return bool(value)
        return value

    def physical(self, index: int) -> Any:
        """The physical (unconverted) value at ``index`` or None for NULL."""
        if not self._valid[index]:
            return None
        value = self._data[index]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def to_list(self,
                date_render: Optional[Callable[[datetime.date], Any]] = None
                ) -> List[Any]:
        """Materialise the column as a list of Python values (None = NULL).

        The values have the types :meth:`__getitem__` gives — ``int``,
        ``float``, ``bool``, ``str`` or ``datetime.date`` — but come
        from one ``tolist()`` of the storage (a list copy for STRING)
        with ``None`` written at the NULL slots. DATE converts each
        distinct day once, and ``date_render`` (``date.isoformat``,
        say), when given, is applied to that date as well.
        """
        valid = self._valid
        if self.dtype is DataType.DATE:
            ordinals = self._data
            if not valid.all():  # NULL placeholders need not be days
                ordinals = np.where(valid, ordinals, 0)
            days, inverse = np.unique(ordinals, return_inverse=True)
            dates = [ordinal_to_date(d) for d in days.tolist()]
            if date_render is not None:
                dates = [date_render(d) for d in dates]
            values = list(map(dates.__getitem__, inverse.tolist()))
        elif self._np_dtype is None:
            values = list(self._data)
        else:
            values = self._data.tolist()
        for i in np.flatnonzero(~valid).tolist():
            values[i] = None
        return values

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    def take(self, indices: Sequence[int]) -> "Column":
        """Gather rows by position into a new column."""
        idx = np.asarray(indices, dtype=np.int64)
        col = Column(self.dtype)
        if self._np_dtype is not None:
            col._data = self._data[idx]
        else:
            col._data = [self._data[i] for i in idx]
        col._valid = self._valid[idx]
        return col

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.dtype is other.dtype and self.to_list() == other.to_list()

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.to_list()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column({self.dtype.value}, [{preview}{suffix}])"
