"""Catalog: the name → table registry queries execute against.

Beyond the registry itself this module carries the *name resolution*
vocabulary the logical plan layer (:mod:`repro.sql.plan`) and the
introspection API share:

* :class:`ColumnSchema` / :class:`TableSchema` — frozen, wire-safe
  descriptions of registered tables (``Session.tables()`` /
  ``Session.describe()`` / ``GET /v1/tables``);
* :class:`Scope` — an alias-aware set of ``(qualifier, column)``
  bindings used to resolve column references *before* execution, so
  the planner can side-classify join predicates and reject ambiguous
  or unknown names with the same semantics the executor applies at
  runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SqlAnalysisError
from repro.table.table import Table


# ----------------------------------------------------------------------
# introspection schemas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnSchema:
    """One column of a registered table, as seen by clients."""

    name: str
    dtype: str  # DataType.value: "int64" | "float64" | "bool" | ...

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "dtype": self.dtype}


@dataclass(frozen=True)
class TableSchema:
    """A registered table's shape: name, columns, row count."""

    name: str
    columns: Tuple[ColumnSchema, ...]
    row_count: int

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "row_count": self.row_count,
                "columns": [c.to_dict() for c in self.columns]}


class Catalog:
    """A case-insensitive collection of named tables."""

    def __init__(self, tables: Optional[Mapping[str, Table]] = None) -> None:
        self._tables: Dict[str, Table] = {}
        if tables:
            for name, table in tables.items():
                self.register(name, table)

    def register(self, name: str, table: Table) -> None:
        self._tables[name.lower()] = table

    def lookup(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SqlAnalysisError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def names(self):
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self, name: str) -> TableSchema:
        """The frozen schema of one registered table.

        Raises :class:`~repro.errors.SqlAnalysisError` for unknown
        names, mirroring :meth:`lookup`."""
        table = self.lookup(name)
        columns = tuple(
            ColumnSchema(field.name.lower(), field.dtype.value)
            for field in table.schema)
        return TableSchema(name.lower(), columns, table.num_rows)

    def tables(self) -> Tuple[TableSchema, ...]:
        """Frozen schemas for every registered table, sorted by name."""
        return tuple(self.describe(name) for name in self.names())


# ----------------------------------------------------------------------
# static name scopes (used by the logical plan layer)
# ----------------------------------------------------------------------
class Scope:
    """An ordered set of ``(qualifier, column)`` bindings.

    Mirrors :class:`repro.sql.expr.Relation`'s binding list — and
    its resolution rules (ambiguity raises, qualifiers compare
    lowercased) — without materializing any data, so the planner can
    resolve names at plan time with execution semantics.
    """

    __slots__ = ("bindings",)

    def __init__(self,
                 bindings: Sequence[Tuple[Optional[str], str]]) -> None:
        self.bindings: List[Tuple[Optional[str], str]] = [
            (qual.lower() if qual else None, name.lower())
            for qual, name in bindings]

    @classmethod
    def for_table(cls, table: Table, qualifier: Optional[str]) -> "Scope":
        return cls([(qualifier, field.name) for field in table.schema])

    @classmethod
    def for_columns(cls, columns: Sequence[str],
                    qualifier: Optional[str]) -> "Scope":
        return cls([(qualifier, name) for name in columns])

    def requalified(self, qualifier: Optional[str]) -> "Scope":
        return Scope([(qualifier, name) for _, name in self.bindings])

    def concat(self, other: "Scope") -> "Scope":
        return Scope(self.bindings + other.bindings)

    def columns(self) -> List[str]:
        return [name for _, name in self.bindings]

    def matches(self, name: str, qualifier: Optional[str]) -> int:
        """How many bindings a reference resolves to (0, 1 or more)."""
        name = name.lower()
        qualifier = qualifier.lower() if qualifier else None
        count = 0
        for qual, col in self.bindings:
            if col != name:
                continue
            if qualifier is not None and qual != qualifier:
                continue
            count += 1
        return count

    def resolves(self, name: str, qualifier: Optional[str]) -> bool:
        return self.matches(name, qualifier) >= 1

    def check(self, name: str, qualifier: Optional[str]) -> None:
        """Raise on ambiguity, exactly like Relation.resolve does."""
        if self.matches(name, qualifier) > 1:
            where = f"{qualifier}.{name}" if qualifier else name
            raise SqlAnalysisError(
                f"ambiguous column reference {where.lower()!r}")
