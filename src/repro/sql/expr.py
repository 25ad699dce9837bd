"""Vectorised expression evaluation and the environment it runs in.

Expressions evaluate column-at-a-time (numpy) with SQL NULL semantics
against a :class:`Relation`; a :class:`Context` carries what they can
see beyond it — the enclosing query's current row (correlated
subqueries), materialized CTEs, the session's caches. Subquery
expressions hold their already-planned body (see
:func:`repro.sql.plan.plan_statement`): a correlated scalar subquery
or EXISTS re-runs that plan per outer row — the shape the paper
observes for the Figure 9 traditional formulations — and never
re-plans it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ParameterBindingError, SqlAnalysisError
from repro.resilience.context import ExecutionContext
from repro.sql import ast
from repro.sql.aggregates import is_aggregate_name
from repro.sql.catalog import Catalog
from repro.sql.keys import key_codes
from repro.sql.vector import (
    Vector,
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
    null_values,
    repeated,
    stacked,
    truthy_rows,
)
from repro.table.column import Column, DataType, infer_dtype
from repro.table.table import Table


# ----------------------------------------------------------------------
# relations
# ----------------------------------------------------------------------
#: A row index shared by the columns that moved together: int64
#: positions into their bases (``None`` for the identity), and whether
#: any position is -1, a NULL row (a LEFT JOIN's NULL extension).
_RowIndex = Tuple[Optional[np.ndarray], bool]
_IDENTITY: _RowIndex = (None, False)


def _gather(base: Vector, rows: np.ndarray, extended: bool) -> Vector:
    """``base``'s rows at ``rows``; with ``extended``, -1 is a NULL row."""
    if not extended:
        return base.take(rows)
    null = rows < 0
    if not len(base):  # nothing to gather from: every row is NULL
        return Vector(null_values(base.dtype, len(rows)),
                      np.zeros(len(rows), dtype=np.bool_), base.dtype)
    out = base.take(np.where(null, 0, rows))
    return Vector(out.values, out.validity & ~null, base.dtype)


def _compose(index: _RowIndex, rows: np.ndarray,
             extends: bool) -> _RowIndex:
    """The index that reads ``rows`` of what ``index`` reads."""
    positions, extended = index
    if positions is None:
        return rows, extends
    if not extends:
        return positions[rows], extended
    if not len(positions):  # every row of ``rows`` is -1
        return rows, True
    return np.where(rows < 0, -1, positions[rows]), True


class Relation:
    """A bag of equal-length columns with (qualifier, name) bindings,
    materialised late.

    Column ``i`` is a base — a :class:`Vector`, or the catalog
    :class:`Column` a scan read, made a vector on first use — seen
    through the row index of its group. Columns that moved together
    (one scan's, one join side's) share a group, so :meth:`take`
    composes one index per group and gathers nothing; a join's
    NULL-extended rows are index -1. :meth:`column` gathers a column
    when something first reads it and keeps the result as the
    column's base, so a second read gathers nothing.

    ``source`` is set on a projection's output: the relation it was
    projected from, row-aligned, which ORDER BY may still reference
    (``take`` drops it; DISTINCT re-aligns it)."""

    def __init__(self, vectors: Sequence[Union[Vector, Column]],
                 bindings: List[Tuple[Optional[str], str]],
                 source: Optional["Relation"] = None) -> None:
        self._n = len(vectors[0]) if vectors else 0
        self._bases: List[Union[Vector, Column]] = list(vectors)
        self._groups: List[int] = [0] * len(self._bases)
        self._indexes: List[_RowIndex] = [_IDENTITY]
        self.bindings = bindings
        self.source = source

    @staticmethod
    def _derived(n: int, bases: List[Union[Vector, Column]],
                 groups: List[int], indexes: List[_RowIndex],
                 bindings: List[Tuple[Optional[str], str]]) -> "Relation":
        out = Relation.__new__(Relation)
        out._n, out._bases, out._groups, out._indexes = \
            n, bases, groups, indexes
        out.bindings, out.source = bindings, None
        return out

    @property
    def n(self) -> int:
        return self._n

    @property
    def width(self) -> int:
        return len(self._bases)

    def column(self, i: int) -> Vector:
        """Column ``i``, gathered on first read."""
        base = self._bases[i]
        positions, extended = self._indexes[self._groups[i]]
        if isinstance(base, Column):
            base = from_column(base)
        if positions is not None:
            base = _gather(base, positions, extended)
            self._groups[i] = self._identity()
        self._bases[i] = base
        return base

    @property
    def vectors(self) -> Tuple[Vector, ...]:
        """Every column, gathered."""
        return tuple(self.column(i) for i in range(self.width))

    def _identity(self) -> int:
        for group, (positions, _extended) in enumerate(self._indexes):
            if positions is None:
                return group
        self._indexes.append(_IDENTITY)
        return len(self._indexes) - 1

    @classmethod
    def from_table(cls, table: Table, qualifier: Optional[str]) -> "Relation":
        """The table's columns, each made a vector only when read."""
        return cls(table.columns,
                   [(qualifier, f.name.lower()) for f in table.schema])

    def copy(self) -> "Relation":
        """The same rows and columns; adding to the copy leaves this
        relation as it was."""
        return self._derived(self._n, list(self._bases), list(self._groups),
                             list(self._indexes), list(self.bindings))

    def requalified(self, qualifier: Optional[str]) -> "Relation":
        out = self.copy()
        out.bindings = [(qualifier, name) for _, name in self.bindings]
        return out

    def resolve(self, name: str, qualifier: Optional[str]) -> Optional[int]:
        name = name.lower()
        matches = []
        for index, (qual, col) in enumerate(self.bindings):
            if col != name:
                continue
            if qualifier is not None and qual != qualifier.lower():
                continue
            matches.append(index)
        if not matches:
            return None
        if len(matches) > 1:
            where = f"{qualifier}.{name}" if qualifier else name
            raise SqlAnalysisError(f"ambiguous column reference {where!r}")
        return matches[0]

    def add(self, vector: Vector, name: str,
            qualifier: Optional[str] = None) -> None:
        if not self._bases:
            self._n = len(vector)
        self._bases.append(vector)
        self._groups.append(self._identity())
        self.bindings.append((qualifier, name.lower()))

    def take(self, rows: np.ndarray) -> "Relation":
        """The relation's rows at ``rows`` (-1: a row of NULLs), with
        one index composed per group and no column gathered."""
        rows = np.asarray(rows, dtype=np.int64)
        extends = bool(len(rows)) and int(rows.min()) < 0
        renumber: Dict[int, int] = {}
        indexes: List[_RowIndex] = []
        for group in self._groups:  # only groups some column still reads
            if group not in renumber:
                renumber[group] = len(indexes)
                indexes.append(_compose(self._indexes[group], rows, extends))
        return self._derived(len(rows), list(self._bases),
                             [renumber[g] for g in self._groups], indexes,
                             list(self.bindings))

    def concat_columns(self, other: "Relation") -> "Relation":
        """This relation's columns then ``other``'s, row for row."""
        shift = len(self._indexes)
        return self._derived(
            self._n, self._bases + other._bases,
            self._groups + [g + shift for g in other._groups],
            self._indexes + other._indexes, self.bindings + other.bindings)


class OuterRow:
    """One row of an enclosing query, visible to correlated subqueries."""

    def __init__(self, relation: Relation, row: int,
                 parent: Optional["OuterRow"] = None,
                 usage: Optional[List[bool]] = None) -> None:
        self.relation = relation
        self.row = row
        self.parent = parent
        self.usage = usage

    def lookup(self, name: str,
               qualifier: Optional[str]) -> Optional[Tuple[Vector, int]]:
        index = self.relation.resolve(name, qualifier)
        if index is not None:
            if self.usage is not None:
                self.usage[0] = True
            return self.relation.column(index), self.row
        if self.parent is not None:
            return self.parent.lookup(name, qualifier)
        return None



@dataclass
class Context:
    """What one query's operators and expressions run against.

    ``actuals`` (plan-node id → the span the driver opened for it) and
    ``reservations`` (the query's open governor reservations, a stack)
    are shared by every context derived from this one."""

    catalog: Catalog
    exec: ExecutionContext
    cache: Any = None  # optional repro.cache.StructureCache
    ctes: Dict[str, Relation] = field(default_factory=dict)
    outer: Optional[OuterRow] = None
    actuals: Dict[int, Any] = field(default_factory=dict)
    reservations: List[Any] = field(default_factory=list)

    def reserve(self, nbytes: int, tag: str) -> None:
        """Charge ``nbytes`` to the session ledger until the driver (or
        the enclosing statement) releases it."""
        if self.exec.memory is not None:
            self.reservations.append(self.exec.memory.reserve(
                nbytes, tag=tag, ctx=self.exec))

    def release(self, mark: int) -> None:
        """Release every reservation taken since the stack held ``mark``."""
        while len(self.reservations) > mark:
            self.reservations.pop().release()


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------
def evaluate(expr: ast.Expr, relation: Relation, ctx: Context) -> Vector:
    n = relation.n
    if isinstance(expr, ast.Literal):
        return from_scalar(expr.value, n)
    if isinstance(expr, ast.IntervalLiteral):
        return from_scalar(expr.days, n)
    if isinstance(expr, ast.ColumnRef):
        index = relation.resolve(expr.name, expr.table)
        if index is not None:
            return relation.column(index)
        if ctx.outer is not None:
            hit = ctx.outer.lookup(expr.name, expr.table)
            if hit is not None:
                vector, row = hit
                return _broadcast(vector, row, n)
        raise SqlAnalysisError(f"unknown column {expr.display()!r}")
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, relation, ctx)
    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, relation, ctx)
        return logical_not(operand) if expr.op == "not" else negate(operand)
    if isinstance(expr, ast.BetweenExpr):
        value = evaluate(expr.expr, relation, ctx)
        low = evaluate(expr.low, relation, ctx)
        high = evaluate(expr.high, relation, ctx)
        result = logical_and(comparison(">=", value, low),
                             comparison("<=", value, high))
        return logical_not(result) if expr.negated else result
    if isinstance(expr, ast.InExpr):
        value = evaluate(expr.expr, relation, ctx)
        result = None
        for item in expr.items:
            candidate = comparison("=", value, evaluate(item, relation, ctx))
            result = candidate if result is None \
                else logical_or(result, candidate)
        if expr.negated:
            result = logical_not(result)
        return result
    if isinstance(expr, ast.IsNullExpr):
        inner = evaluate(expr.expr, relation, ctx)
        result = ~inner.validity if not expr.negated else inner.validity
        return Vector(result.copy(), np.ones(n, dtype=np.bool_),
                      DataType.BOOL)
    if isinstance(expr, ast.LikeExpr):
        return _eval_like(expr, relation, ctx)
    if isinstance(expr, ast.CaseExpr):
        return _eval_case(expr, relation, ctx)
    if isinstance(expr, ast.CastExpr):
        return cast(evaluate(expr.expr, relation, ctx), expr.type_name)
    if isinstance(expr, ast.FuncCall):
        return _eval_scalar_function(expr, relation, ctx)
    if isinstance(expr, ast.ScalarSubquery):
        return _eval_scalar_subquery(expr, relation, ctx)
    if isinstance(expr, ast.InSubquery):
        return _eval_in_subquery(expr, relation, ctx)
    if isinstance(expr, ast.ExistsExpr):
        return _eval_exists(expr, relation, ctx)
    if isinstance(expr, ast.Parameter):
        raise ParameterBindingError(
            f"statement has an unbound parameter {expr.display()}; "
            f"prepare it with Session.prepare() and execute with "
            f"bound values")
    if isinstance(expr, ast.WindowFunc):
        raise SqlAnalysisError(
            "window functions are only allowed in the SELECT list "
            "and ORDER BY")
    if isinstance(expr, ast.Star):
        raise SqlAnalysisError("'*' is only allowed in the SELECT list")
    raise SqlAnalysisError(f"unsupported expression {type(expr).__name__}")


def _broadcast(vector: Vector, row: int, n: int) -> Vector:
    return Vector(repeated(vector.values[row], n, vector.values.dtype),
                  np.full(n, vector.validity[row], dtype=np.bool_),
                  vector.dtype)


def _eval_binary(expr: ast.BinaryOp, relation: Relation,
                 ctx: Context) -> Vector:
    if expr.op == "and":
        return logical_and(evaluate(expr.left, relation, ctx),
                           evaluate(expr.right, relation, ctx))
    if expr.op == "or":
        return logical_or(evaluate(expr.left, relation, ctx),
                          evaluate(expr.right, relation, ctx))
    left = evaluate(expr.left, relation, ctx)
    right = evaluate(expr.right, relation, ctx)
    if expr.op in ("+", "-", "*", "/", "%"):
        return arithmetic(expr.op, left, right)
    if expr.op == "||":
        return concat(left, right)
    return comparison(expr.op, left, right)


@functools.lru_cache(maxsize=256)
def _like_matcher(pattern: str) -> Callable[[str], Any]:
    """A regex ``search`` that matches where the LIKE pattern does: '%'
    is any run, '_' any one character, the rest itself. A leading or
    trailing '%' drops that end's anchor instead of scanning with
    ``.*``."""
    body = "".join(".*" if ch == "%" else "." if ch == "_"
                   else re.escape(ch) for ch in pattern.strip("%"))
    start = "" if pattern.startswith("%") else r"\A"
    end = "" if pattern.endswith("%") else r"\Z"
    return re.compile(start + body + end, re.DOTALL).search


def _eval_like(expr: ast.LikeExpr, relation: Relation,
               ctx: Context) -> Vector:
    """SQL LIKE over whole columns: a constant pattern is compiled once
    and matched against each distinct value when values repeat."""
    value = evaluate(expr.expr, relation, ctx)
    pattern = evaluate(expr.pattern, relation, ctx)
    if value.dtype is not DataType.STRING \
            or pattern.dtype is not DataType.STRING:
        raise SqlAnalysisError("LIKE expects string operands")
    validity = value.validity & pattern.validity
    values = value.values.tolist()
    if isinstance(expr.pattern, ast.Literal):
        match = _like_matcher(expr.pattern.value)
        distinct = dict.fromkeys(values)
        if 2 * len(distinct) <= len(values):
            hits = map(dict(zip(distinct, map(bool, map(match, distinct))))
                       .__getitem__, values)
        else:
            hits = map(bool, map(match, values))
    else:
        hits = (_like_matcher(p)(v) is not None
                for v, p in zip(values, pattern.values.tolist()))
    result = np.fromiter(hits, dtype=np.bool_, count=len(values))
    if expr.negated:
        result = ~result
    return Vector(result & validity, validity, DataType.BOOL)


def _eval_case(expr: ast.CaseExpr, relation: Relation,
               ctx: Context) -> Vector:
    n = relation.n
    decided = np.zeros(n, dtype=np.bool_)
    branches: List[Tuple[np.ndarray, Vector]] = []
    for cond, branch in expr.whens:
        mask = truthy_rows(evaluate(cond, relation, ctx)) & ~decided
        branches.append((mask, evaluate(branch, relation, ctx)))
        decided |= mask
    result = evaluate(expr.else_, relation, ctx) if expr.else_ is not None \
        else from_scalar(None, n)
    for mask, vector in branches:
        result = _merge_vectors(result, vector, mask)
    return result


def _merge_vectors(base: Vector, update: Vector,
                   mask: np.ndarray) -> Vector:
    """Rows where ``mask`` holds take ``update``, others keep ``base``."""
    values = np.where(mask, update.values, base.values)
    validity = np.where(mask, update.validity, base.validity)
    dtype = base.dtype if base.dtype == update.dtype else (
        DataType.FLOAT64 if base.dtype.is_numeric and update.dtype.is_numeric
        else base.dtype)
    return Vector(values, validity, dtype)


def _run_subquery(plan: Any, ctx: Context,
                  outer: Optional[OuterRow]) -> Relation:
    """Run a subquery expression's planned body with ``outer`` as the
    row its correlated references resolve against."""
    from repro.sql.executor import run_statement  # imports this module
    return run_statement(plan, replace(ctx, outer=outer))


def _eval_scalar_subquery(expr: ast.ScalarSubquery, relation: Relation,
                          ctx: Context) -> Vector:
    n = relation.n
    usage = [False]
    if n == 0:
        return from_scalar(None, 0)
    # Probe with row 0: if no outer column is touched, the subquery is
    # uncorrelated and one execution serves every row.
    probe_outer = OuterRow(relation, 0, parent=ctx.outer, usage=usage)
    first = _scalar_from(_run_subquery(expr.select, ctx, probe_outer))
    if not usage[0]:
        return from_scalar(first, n)
    values: List[Any] = [first]
    for row in range(1, n):
        ctx.exec.checkpoint()
        outer = OuterRow(relation, row, parent=ctx.outer)
        values.append(_scalar_from(_run_subquery(expr.select, ctx, outer)))
    column = Column(infer_dtype(values), values)
    return from_column(column)


def _scalar_from(relation: Relation) -> Any:
    if relation.n == 0:
        return None
    if relation.n > 1:
        raise SqlAnalysisError("scalar subquery returned more than one row")
    if relation.width != 1:
        raise SqlAnalysisError(
            "scalar subquery must return exactly one column")
    return relation.column(0).python_value(0)


def _eval_in_subquery(expr: ast.InSubquery, relation: Relation,
                      ctx: Context) -> Vector:
    """``expr [NOT] IN (SELECT ...)``: one subquery execution, then a
    membership probe on key codes with SQL three-valued logic.

    The plan layer rejects correlated bodies up front (they would need
    per-row re-execution; rewrite as a join or EXISTS), so the
    subquery runs exactly once regardless of the outer row count."""
    sub_rel = _run_subquery(expr.select, ctx, None)
    if sub_rel.width != 1:
        raise SqlAnalysisError(
            "IN subquery must return exactly one column")
    members = sub_rel.column(0)
    probe = evaluate(expr.expr, relation, ctx)
    # One code space for both sides; -1 (NULL, NaN) equals nothing.
    codes = key_codes([stacked(probe, members)], sql_equal=True)
    probe_codes, member_codes = codes[:relation.n], codes[relation.n:]
    found = (probe_codes >= 0) & np.isin(probe_codes, member_codes)
    # NULL IN (...) is NULL; so is a miss against a set holding a NULL.
    validity = probe.validity & (found | members.validity.all())
    out = Vector(found, validity, DataType.BOOL)
    return logical_not(out) if expr.negated else out


def _eval_exists(expr: ast.ExistsExpr, relation: Relation,
                 ctx: Context) -> Vector:
    n = relation.n
    result = np.zeros(n, dtype=np.bool_)
    for row in range(n):
        ctx.exec.checkpoint()
        outer = OuterRow(relation, row, parent=ctx.outer)
        result[row] = _run_subquery(expr.select, ctx, outer).n > 0
    if expr.negated:
        result = ~result
    return Vector(result, np.ones(n, dtype=np.bool_), DataType.BOOL)


def _eval_scalar_function(expr: ast.FuncCall, relation: Relation,
                          ctx: Context) -> Vector:
    name = expr.name.lower()
    if is_aggregate_name(name):
        raise SqlAnalysisError(
            f"aggregate {expr.name!r} is not allowed here")
    args = [evaluate(a, relation, ctx) for a in expr.args]
    if name == "mod":
        _expect_args(expr, args, 2)
        return arithmetic("%", args[0], args[1])
    if name == "abs":
        _expect_args(expr, args, 1)
        return Vector(np.abs(np.asarray(args[0].values)),
                      args[0].validity.copy(), args[0].dtype)
    if name in ("floor", "ceil", "ceiling"):
        _expect_args(expr, args, 1)
        fn = np.floor if name == "floor" else np.ceil
        return Vector(fn(np.asarray(args[0].values, dtype=np.float64))
                      .astype(np.int64), args[0].validity.copy(),
                      DataType.INT64)
    if name == "round":
        values = np.asarray(args[0].values, dtype=np.float64)
        digits = _round_scale(expr.args[1]) if len(expr.args) > 1 else 0
        return Vector(np.round(values, digits), args[0].validity.copy(),
                      DataType.FLOAT64)
    if name == "coalesce":
        result = args[0]
        for candidate in args[1:]:
            result = _merge_vectors(candidate, result, result.validity)
        return result
    if name in ("least", "greatest"):
        op = np.fmin if name == "least" else np.fmax
        values = np.asarray(args[0].values, dtype=np.float64)
        validity = args[0].validity.copy()
        for candidate in args[1:]:
            values = op(values, np.asarray(candidate.values,
                                           dtype=np.float64))
            validity &= candidate.validity
        return Vector(values, validity, DataType.FLOAT64)
    if name == "length":
        _expect_args(expr, args, 1)
        values = np.array([len(v) for v in args[0].values], dtype=np.int64)
        return Vector(values, args[0].validity.copy(), DataType.INT64)
    if name in ("lower", "upper"):
        _expect_args(expr, args, 1)
        transform = str.lower if name == "lower" else str.upper
        values = np.array([transform(v) for v in args[0].values],
                          dtype=object)
        return Vector(values, args[0].validity.copy(), DataType.STRING)
    if name == "year":
        _expect_args(expr, args, 1)
        days = np.asarray(args[0].values, dtype="timedelta64[D]")
        dates = np.datetime64("1970-01-01") + days
        years = dates.astype("datetime64[Y]").astype(np.int64) + 1970
        return Vector(years, args[0].validity.copy(), DataType.INT64)
    raise SqlAnalysisError(f"unknown function {expr.name!r}")


def _round_scale(arg: ast.Expr) -> int:
    """``round``'s scale, read off its literal (so zero input rows need
    no value of it): a number, or a negated one."""
    sign = 1
    if isinstance(arg, ast.UnaryOp) and arg.op == "-":
        sign, arg = -1, arg.operand
    if isinstance(arg, ast.Literal) and \
            isinstance(arg.value, (int, float)) and \
            not isinstance(arg.value, bool):
        return sign * int(arg.value)
    raise SqlAnalysisError("round's scale must be a numeric constant")


def _expect_args(expr: ast.FuncCall, args: List[Vector], count: int) -> None:
    if len(args) != count:
        raise SqlAnalysisError(
            f"{expr.name} expects {count} argument(s), got {len(args)}")
