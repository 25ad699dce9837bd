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

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

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
    repeated,
    stacked,
    truthy_rows,
)
from repro.table.column import Column, DataType, infer_dtype
from repro.table.table import Table


# ----------------------------------------------------------------------
# relations
# ----------------------------------------------------------------------
class Relation:
    """A bag of equal-length vectors with (qualifier, name) bindings.

    ``source`` is set on a projection's output: the relation it was
    projected from, row-aligned, which ORDER BY may still reference
    (``take`` drops it; DISTINCT re-aligns it)."""

    def __init__(self, vectors: List[Vector],
                 bindings: List[Tuple[Optional[str], str]],
                 source: Optional["Relation"] = None) -> None:
        self.vectors = vectors
        self.bindings = bindings
        self.source = source

    @property
    def n(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    @classmethod
    def from_table(cls, table: Table, qualifier: Optional[str]) -> "Relation":
        vectors = [from_column(col) for col in table.columns]
        bindings = [(qualifier, f.name.lower()) for f in table.schema]
        return cls(vectors, bindings)

    def requalified(self, qualifier: Optional[str]) -> "Relation":
        return Relation(list(self.vectors),
                        [(qualifier, name) for _, name in self.bindings])

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
        self.vectors.append(vector)
        self.bindings.append((qualifier, name.lower()))

    def take(self, rows: np.ndarray) -> "Relation":
        return Relation([v.take(rows) for v in self.vectors],
                        list(self.bindings))

    def concat_columns(self, other: "Relation") -> "Relation":
        return Relation(self.vectors + other.vectors,
                        self.bindings + other.bindings)


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
            return self.relation.vectors[index], self.row
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
    parallel: Any = None  # optional repro.parallel.scheduler.WindowScheduler
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
            return relation.vectors[index]
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


def _eval_like(expr: ast.LikeExpr, relation: Relation,
               ctx: Context) -> Vector:
    """SQL LIKE: '%' matches any run, '_' any single character."""
    import re as _re
    value = evaluate(expr.expr, relation, ctx)
    pattern = evaluate(expr.pattern, relation, ctx)
    if value.dtype is not DataType.STRING \
            or pattern.dtype is not DataType.STRING:
        raise SqlAnalysisError("LIKE expects string operands")
    n = len(value)
    result = np.zeros(n, dtype=np.bool_)
    validity = value.validity & pattern.validity
    compiled = {}
    for i in range(n):
        if not validity[i]:
            continue
        raw = pattern.values[i]
        regex = compiled.get(raw)
        if regex is None:
            # translate: escape regex chars, then map SQL wildcards
            parts = []
            for ch in raw:
                if ch == "%":
                    parts.append(".*")
                elif ch == "_":
                    parts.append(".")
                else:
                    parts.append(_re.escape(ch))
            regex = _re.compile("^" + "".join(parts) + "$", _re.DOTALL)
            compiled[raw] = regex
        result[i] = regex.match(value.values[i]) is not None
    if expr.negated:
        result = ~result & validity
    return Vector(result, validity, DataType.BOOL)


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
    if len(relation.vectors) != 1:
        raise SqlAnalysisError(
            "scalar subquery must return exactly one column")
    return relation.vectors[0].python_value(0)


def _eval_in_subquery(expr: ast.InSubquery, relation: Relation,
                      ctx: Context) -> Vector:
    """``expr [NOT] IN (SELECT ...)``: one subquery execution, then a
    membership probe on key codes with SQL three-valued logic.

    The plan layer rejects correlated bodies up front (they would need
    per-row re-execution; rewrite as a join or EXISTS), so the
    subquery runs exactly once regardless of the outer row count."""
    sub_rel = _run_subquery(expr.select, ctx, None)
    if len(sub_rel.vectors) != 1:
        raise SqlAnalysisError(
            "IN subquery must return exactly one column")
    members = sub_rel.vectors[0]
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
        digits = 0
        if len(args) > 1:
            digits = int(np.asarray(args[1].values)[0])
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


def _expect_args(expr: ast.FuncCall, args: List[Vector], count: int) -> None:
    if len(args) != count:
        raise SqlAnalysisError(
            f"{expr.name} expects {count} argument(s), got {len(args)}")
