"""The in-memory columnar :class:`Table`."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError
from repro.table.column import Column, DataType
from repro.table.schema import Field, Schema


class Table:
    """A named collection of equal-length :class:`Column` objects.

    Tables are append-only: rows can be added but not removed in place;
    filtering and sorting produce new tables (``take``).
    """

    def __init__(self, schema: Schema, name: str = "") -> None:
        self.schema = schema
        self.name = name
        self.columns: List[Column] = [Column(field.dtype) for field in schema]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]],
                  name: str = "") -> "Table":
        """Build a table from an iterable of row tuples."""
        table = cls(schema, name=name)
        table.append_rows(rows)
        return table

    @classmethod
    def from_columns(cls, schema: Schema, columns: Sequence[Column],
                     name: str = "") -> "Table":
        """Adopt pre-built columns (must match the schema)."""
        if len(columns) != len(schema):
            raise SchemaError("column count does not match schema")
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        for field, column in zip(schema, columns):
            if column.dtype is not field.dtype:
                raise SchemaError(
                    f"column {field.name!r} expects {field.dtype}, got {column.dtype}")
        table = cls(schema, name=name)
        table.columns = list(columns)
        return table

    @classmethod
    def from_dict(cls, data: Dict[str, Tuple[DataType, Sequence[Any]]],
                  name: str = "") -> "Table":
        """Build a table from ``{name: (dtype, values)}``."""
        schema = Schema(Field(col, dtype) for col, (dtype, _) in data.items())
        columns = [Column(dtype, values) for dtype, values in data.values()]
        return cls.from_columns(schema, columns, name=name)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append_row(self, row: Sequence[Any]) -> None:
        self.append_rows([row])

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        buffers: List[List[Any]] = [[] for _ in self.columns]
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"row has {len(row)} values, schema has {width} columns")
            for buffer, value in zip(buffers, row):
                buffer.append(value)
        for column, buffer in zip(self.columns, buffers):
            column.extend(buffer)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def row(self, index: int) -> Tuple[Any, ...]:
        return tuple(column[index] for column in self.columns)

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        return zip(*(column.to_list() for column in self.columns))

    def to_rows(self) -> List[Tuple[Any, ...]]:
        return list(self.rows())

    def take(self, indices: Sequence[int], name: Optional[str] = None) -> "Table":
        """Gather rows by position into a new table."""
        columns = [column.take(indices) for column in self.columns]
        return Table.from_columns(self.schema, columns,
                                  name=self.name if name is None else name)

    def head(self, n: int = 10) -> "Table":
        return self.take(range(min(n, self.num_rows)))

    def select(self, names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Project a subset of columns into a new table."""
        fields = [self.schema.field(n) for n in names]
        columns = [self.column(n) for n in names]
        return Table.from_columns(Schema(fields), columns,
                                  name=self.name if name is None else name)

    def filter(self, mask: Sequence[bool]) -> "Table":
        """Keep only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=np.bool_)
        if len(mask) != self.num_rows:
            raise SchemaError("filter mask length mismatch")
        return self.take(np.flatnonzero(mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema == other.schema and self.to_rows() == other.to_rows()

    def __repr__(self) -> str:
        return (f"Table({self.name or '<anonymous>'}, "
                f"{self.num_rows} rows x {self.num_columns} cols)")

    def pretty(self, limit: int = 20) -> str:
        """A human-readable rendering for examples and debugging."""
        names = self.schema.names()
        shown = [tuple(str(v) for v in row)
                 for row in self.head(limit).rows()]
        widths = [len(n) for n in names]
        for row in shown:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = [fmt(names), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in shown)
        if self.num_rows > limit:
            lines.append(f"... ({self.num_rows - limit} more rows)")
        return "\n".join(lines)
