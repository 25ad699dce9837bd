"""Abstract syntax tree node types and the one traversal over them.

Every node is a frozen dataclass, so :func:`children`,
:func:`statements` and :func:`map_children` are derived from
``dataclasses.fields`` — a new node type is traversed without anyone
remembering to extend an ``isinstance`` ladder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # int | float | str | bool | datetime.date | None


@dataclass(frozen=True)
class IntervalLiteral(Expr):
    days: int
    text: str = ""


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    table: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # + - * / % = <> < <= > >= and or ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # - not
    operand: Expr


@dataclass(frozen=True)
class BetweenExpr(Expr):
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InExpr(Expr):
    expr: Expr
    items: Tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNullExpr(Expr):
    expr: Expr
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Expr):
    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(Expr):
    whens: Tuple[Tuple[Expr, Expr], ...]
    else_: Optional[Expr] = None


@dataclass(frozen=True)
class CastExpr(Expr):
    expr: Expr
    type_name: str


@dataclass(frozen=True)
class SortItem:
    expr: Expr
    descending: bool = False
    nulls_last: Optional[bool] = None


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call — scalar, aggregate, or (wrapped) window.

    Captures the paper's extended call syntax: ``DISTINCT``, an in-call
    ``ORDER BY`` (``rank(order by tps desc)``), ``WITHIN GROUP``,
    ``FILTER (WHERE ...)``, ``IGNORE NULLS`` and ``FROM LAST``.
    """

    name: str
    args: Tuple[Expr, ...] = ()
    distinct: bool = False
    order_by: Tuple[SortItem, ...] = ()
    within_group: Tuple[SortItem, ...] = ()
    filter_where: Optional[Expr] = None
    ignore_nulls: bool = False
    from_last: bool = False
    star: bool = False  # count(*)


@dataclass(frozen=True)
class FrameBoundAst:
    kind: str  # unbounded_preceding | preceding | current_row | following
               # | unbounded_following
    offset: Optional[Expr] = None


@dataclass(frozen=True)
class FrameAst:
    mode: str  # rows | range | groups
    start: FrameBoundAst
    end: FrameBoundAst
    exclusion: str = "no_others"  # no_others | current_row | group | ties


@dataclass(frozen=True)
class WindowDef:
    partition_by: Tuple[Expr, ...] = ()
    order_by: Tuple[SortItem, ...] = ()
    frame: Optional[FrameAst] = None


@dataclass(frozen=True)
class WindowFunc(Expr):
    func: FuncCall
    window: Union[WindowDef, str]  # inline definition or named window


@dataclass(frozen=True)
class Parameter(Expr):
    """A prepared-statement placeholder: ``$1`` (positional, 1-based)
    or ``:name`` (named). Bound to a literal before execution."""

    index: Optional[int] = None
    name: Optional[str] = None

    @property
    def key(self) -> Union[int, str]:
        return self.index if self.index is not None else self.name

    def display(self) -> str:
        if self.index is not None:
            return f"${self.index}"
        return f":{self.name}"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    #: The body as parsed; the planner replaces it (here and in
    #: InSubquery / ExistsExpr) with its planned ``StatementPlan``.
    select: "SelectStmt"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` — semi/anti-join membership."""

    expr: Expr
    select: "SelectStmt"
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr(Expr):
    select: "SelectStmt"
    negated: bool = False


# ----------------------------------------------------------------------
# table expressions and statements
# ----------------------------------------------------------------------
class TableExpr:
    """Base class for FROM-clause items."""


@dataclass(frozen=True)
class NamedTable(TableExpr):
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class DerivedTable(TableExpr):
    select: "SelectStmt"
    alias: str


@dataclass(frozen=True)
class Join(TableExpr):
    left: TableExpr
    right: TableExpr
    kind: str = "inner"  # inner | cross | left
    condition: Optional[Expr] = None


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class SelectStmt:
    items: Tuple[SelectItem, ...]
    from_: Optional[TableExpr] = None
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    windows: Tuple[Tuple[str, WindowDef], ...] = ()
    order_by: Tuple[SortItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    ctes: Tuple[Tuple[str, "SelectStmt"], ...] = ()


# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------
#: Non-expression dataclasses that traversal looks through.
_CARRIERS = (SortItem, FrameBoundAst, FrameAst, WindowDef, SelectItem,
             Join, DerivedTable)


#: Field annotations that can hold neither an expression nor a
#: statement; traversal skips such fields without looking at them.
_PLAIN = frozenset({"str", "bool", "int", "Any", "Optional[int]",
                    "Optional[str]"})


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls)
                 if f.type not in _PLAIN)


def _scan(value: Any, exprs: List[Expr],
          stmts: List[SelectStmt]) -> None:
    if isinstance(value, Expr):
        exprs.append(value)
    elif isinstance(value, SelectStmt):
        stmts.append(value)
    elif isinstance(value, tuple):
        for item in value:
            _scan(item, exprs, stmts)
    elif isinstance(value, _CARRIERS):
        for name in _field_names(type(value)):
            _scan(getattr(value, name), exprs, stmts)


def _scan_fields(node: Any) -> Tuple[List[Expr], List[SelectStmt]]:
    exprs: List[Expr] = []
    stmts: List[SelectStmt] = []
    for name in _field_names(type(node)):
        _scan(getattr(node, name), exprs, stmts)
    return exprs, stmts


@lru_cache(maxsize=None)
def _all_field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def shape(node: Any) -> Any:
    """A key equal for structurally equal expressions. Literals compare
    by type too: the dataclasses' own ``==`` holds ``Literal(1) ==
    Literal(1.0) == Literal(True)``, and those evaluate differently."""
    if isinstance(node, Literal):
        return (Literal, type(node.value), node.value)
    if isinstance(node, tuple):
        return tuple(shape(item) for item in node)
    if dataclasses.is_dataclass(node):
        return (type(node),) + tuple(shape(getattr(node, name))
                                     for name in _all_field_names(type(node)))
    return (type(node), node)


class Exact:
    """``node`` as a dict or set key that tells apart what ``==``
    conflates: it hashes like ``node`` and compares by :func:`shape`
    only when ``==`` already holds between two distinct nodes, so a
    lookup costs what one keyed by ``node`` itself costs, and only a
    match between equal copies pays for the shapes."""

    __slots__ = ("node", "_hash")

    def __init__(self, node: Any) -> None:
        self.node = node
        self._hash = hash(node)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Exact):
            return NotImplemented
        return self.node is other.node or (
            self.node == other.node and
            shape(self.node) == shape(other.node))


def children(node: Any) -> List[Expr]:
    """The expressions immediately inside ``node``, in field order.

    For an expression these are its sub-expressions (sort items,
    window definitions and CASE arms looked through); for a
    :class:`SelectStmt` they are the statement's own top-level
    expressions, JOIN conditions included. Nested statements are never
    entered — :func:`statements` returns those."""
    return _scan_fields(node)[0]


def statements(node: Any) -> List[SelectStmt]:
    """The statements immediately inside ``node``: a subquery
    expression's body, or a statement's CTE bodies and derived tables."""
    return _scan_fields(node)[1]


def walk(node: Any) -> Iterator[Any]:
    """``node`` and every expression and statement beneath it,
    pre-order, nested statements included."""
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        exprs, stmts = _scan_fields(node)
        pending.extend(reversed(stmts))
        pending.extend(reversed(exprs))


def map_children(node: Any, fn: Callable[[Expr], Expr],
                 stmt_fn: Optional[Callable[[SelectStmt], SelectStmt]]
                 = None) -> Any:
    """A copy of ``node`` with ``fn`` applied to every expression
    :func:`children` returns (and ``stmt_fn``, when given, to every
    statement :func:`statements` returns). Returns ``node`` itself when
    nothing changed."""
    changes = {}
    for name in _field_names(type(node)):
        old = getattr(node, name)
        new = _rebuild(old, fn, stmt_fn)
        if new is not old:
            changes[name] = new
    return dataclasses.replace(node, **changes) if changes else node


def _rebuild(value: Any, fn: Any, stmt_fn: Any) -> Any:
    if isinstance(value, Expr):
        return fn(value)
    if isinstance(value, tuple):
        items = [_rebuild(item, fn, stmt_fn) for item in value]
        for new, old in zip(items, value):
            if new is not old:
                return tuple(items)
        return value
    if isinstance(value, _CARRIERS):
        return map_children(value, fn, stmt_fn)
    if stmt_fn is not None and isinstance(value, SelectStmt):
        return stmt_fn(value)
    return value
