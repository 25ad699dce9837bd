"""Prepared-statement parameters: the ``$1`` / ``:name`` placeholder
machinery behind ``Session.prepare``.

:func:`collect_parameters` finds a statement's placeholders,
:func:`validate_parameters` checks their shape at prepare time,
:func:`infer_parameter_types` types each slot from the columns it is
compared against, and :func:`coerce_parameter` / :func:`bind_parameters`
check and substitute one execution's values.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ParameterBindingError, SqlAnalysisError
from repro.sql import ast
from repro.sql.catalog import Catalog
from repro.sql.plan import derived_tables, output_names

__all__ = ["collect_parameters", "validate_parameters",
           "infer_parameter_types", "bind_parameters", "coerce_parameter"]

ParamKey = Union[int, str]


def collect_parameters(stmt: ast.SelectStmt) -> List[ast.Parameter]:
    """Every distinct parameter placeholder, in first-appearance order."""
    seen: Dict[ParamKey, ast.Parameter] = {}
    for node in ast.walk(stmt):
        if isinstance(node, ast.Parameter) and node.key not in seen:
            seen[node.key] = node
    return list(seen.values())


def validate_parameters(stmt: ast.SelectStmt) -> List[ast.Parameter]:
    """Prepare-time shape checks: no mixing of ``$n`` and ``:name``
    styles, positional numbering contiguous from ``$1``."""
    params = collect_parameters(stmt)
    positional = [p for p in params if p.index is not None]
    named = [p for p in params if p.name is not None]
    if positional and named:
        raise ParameterBindingError(
            "cannot mix positional ($1) and named (:name) parameters "
            "in one statement")
    if positional:
        indices = sorted(p.index for p in positional)
        if indices != list(range(1, len(indices) + 1)):
            raise ParameterBindingError(
                f"positional parameters must be numbered contiguously "
                f"from $1; statement uses {['$%d' % i for i in indices]}")
    return params


_TYPE_OF_PYTHON = (
    (bool, "bool"),
    (int, "int64"),
    (float, "float64"),
    (str, "string"),
    (datetime.date, "date"),
)


def _literal_type(value: Any) -> Optional[str]:
    for pytype, name in _TYPE_OF_PYTHON:
        if isinstance(value, pytype):
            return name
    return None


_CAST_TYPES = {
    "int": "int64", "integer": "int64", "bigint": "int64",
    "int64": "int64", "float": "float64", "double": "float64",
    "real": "float64", "float64": "float64", "varchar": "string",
    "text": "string", "string": "string",
}


def infer_parameter_types(stmt: ast.SelectStmt, catalog: Catalog
                          ) -> Dict[ParamKey, Optional[str]]:
    """Best-effort type inference for each parameter slot.

    A parameter compared (``=``, ``<``, ``BETWEEN``, ``IN``, arithmetic)
    against a column of known type adopts that column's type;
    ``LIKE`` patterns are strings.  Slots that stay ``None`` are
    accepted unchecked at bind time."""
    out: Dict[ParamKey, Optional[str]] = {
        p.key: None for p in collect_parameters(stmt)}
    _infer_stmt(stmt, catalog, {}, out)
    return out


def _infer_stmt(stmt: ast.SelectStmt, catalog: Catalog,
                ctes: Dict[str, Sequence[str]],
                out: Dict[ParamKey, Optional[str]]) -> None:
    local_ctes = dict(ctes)
    for name, sub in stmt.ctes:
        _infer_stmt(sub, catalog, local_ctes, out)
        local_ctes[name.lower()] = output_names(sub, catalog, local_ctes)
    try:
        types = _typed_bindings(stmt.from_, catalog, local_ctes)
    except SqlAnalysisError:
        types = []
    for expr in ast.children(stmt):
        _infer_expr(expr, types, catalog, local_ctes, out)
    for sub in derived_tables(stmt):
        _infer_stmt(sub, catalog, local_ctes, out)


_Bindings = List[Tuple[Optional[str], str, Optional[str]]]


def _type_of(expr: ast.Expr, types: _Bindings) -> Optional[str]:
    """The type ``expr`` gives a parameter compared against it, from the
    FROM clause's ``types`` (:func:`_typed_bindings`), or None."""
    if isinstance(expr, ast.ColumnRef):
        name = expr.name.lower()
        qualifier = expr.table.lower() if expr.table else None
        found = None
        for qual, col, dtype in types:
            if col != name:
                continue
            if qualifier is not None and qual != qualifier:
                continue
            if found is not None and found != dtype:
                return None
            found = dtype
        return found
    if isinstance(expr, ast.Literal):
        return _literal_type(expr.value)
    if isinstance(expr, ast.IntervalLiteral):
        return "int64"
    if isinstance(expr, ast.CastExpr):
        return _CAST_TYPES.get(expr.type_name.lower())
    return None


def _record(out: Dict[ParamKey, Optional[str]], param: ast.Parameter,
            dtype: Optional[str]) -> None:
    """Type ``param``'s slot as ``dtype`` unless it is typed already."""
    if dtype is not None and out.get(param.key) is None:
        out[param.key] = dtype


def _infer_expr(node: ast.Expr, types: _Bindings, catalog: Catalog,
                ctes: Dict[str, Sequence[str]],
                out: Dict[ParamKey, Optional[str]]) -> None:
    """Type every parameter in ``node`` (nested statements included)
    from what it is compared against."""
    if isinstance(node, ast.BinaryOp) and node.op in (
            "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"):
        if isinstance(node.left, ast.Parameter):
            _record(out, node.left, _type_of(node.right, types))
        if isinstance(node.right, ast.Parameter):
            _record(out, node.right, _type_of(node.left, types))
    elif isinstance(node, ast.BetweenExpr):
        anchor = _type_of(node.expr, types)
        for side in (node.low, node.high):
            if isinstance(side, ast.Parameter):
                _record(out, side, anchor)
        if isinstance(node.expr, ast.Parameter):
            low = _type_of(node.low, types)
            _record(out, node.expr, low if low is not None
                    else _type_of(node.high, types))
    elif isinstance(node, ast.InExpr):
        anchor = _type_of(node.expr, types)
        for item in node.items:
            if isinstance(item, ast.Parameter):
                _record(out, item, anchor)
    elif isinstance(node, ast.LikeExpr):
        if isinstance(node.pattern, ast.Parameter):
            _record(out, node.pattern, "string")
        if isinstance(node.expr, ast.Parameter):
            _record(out, node.expr, "string")
    for child in ast.children(node):
        _infer_expr(child, types, catalog, ctes, out)
    for sub in ast.statements(node):
        _infer_stmt(sub, catalog, ctes, out)


def _typed_bindings(from_: Optional[ast.TableExpr], catalog: Catalog,
                    ctes: Mapping[str, Sequence[str]]) -> _Bindings:
    """(qualifier, column, dtype-or-None) triples for a FROM clause."""
    if from_ is None:
        return []
    if isinstance(from_, ast.NamedTable):
        qualifier = (from_.alias or from_.name).lower()
        key = from_.name.lower()
        if key in ctes:
            return [(qualifier, col.lower(), None) for col in ctes[key]]
        table = catalog.lookup(from_.name)
        return [(qualifier, field.name.lower(), field.dtype.value)
                for field in table.schema]
    if isinstance(from_, ast.DerivedTable):
        names = output_names(from_.select, catalog, ctes)
        return [(from_.alias.lower(), col, None) for col in names]
    if isinstance(from_, ast.Join):
        return (_typed_bindings(from_.left, catalog, ctes)
                + _typed_bindings(from_.right, catalog, ctes))
    return []


_BIND_ACCEPTS: Dict[str, Tuple[type, ...]] = {
    "bool": (bool,),
    "int64": (bool, int),
    "float64": (bool, int, float),
    "string": (str,),
    "date": (datetime.date, str),
}


def coerce_parameter(key: ParamKey, value: Any,
                     dtype: Optional[str]) -> Any:
    """Type-check (and lightly coerce) one bound value.

    ``None`` always binds (SQL NULL).  A ``date`` slot accepts
    :class:`datetime.date` or an ISO string (the JSON wire form).
    Slots with no inferred type accept any supported scalar."""
    label = f"${key}" if isinstance(key, int) else f":{key}"
    if value is None:
        return None
    if dtype is None:
        if _literal_type(value) is None:
            raise ParameterBindingError(
                f"parameter {label} has unsupported type "
                f"{type(value).__name__}")
        return value
    accepts = _BIND_ACCEPTS[dtype]
    if isinstance(value, bool) and dtype not in ("bool", "int64",
                                                 "float64"):
        raise ParameterBindingError(
            f"parameter {label} expects {dtype}, got bool")
    if not isinstance(value, accepts):
        raise ParameterBindingError(
            f"parameter {label} expects {dtype}, got "
            f"{type(value).__name__} ({value!r})")
    if dtype == "date":
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value.strip())
            except ValueError:
                raise ParameterBindingError(
                    f"parameter {label} expects an ISO date, got "
                    f"{value!r}") from None
        if isinstance(value, datetime.datetime):
            return value.date()
    return value


def bind_parameters(stmt: ast.SelectStmt,
                    values: Mapping[ParamKey, Any]) -> ast.SelectStmt:
    """A copy of the statement with every placeholder replaced by a
    literal.  Unknown keys in ``values`` are ignored (callers validate
    arity); an unbound placeholder is left in place and rejected by
    the executor."""
    return _Binder(values).bind_stmt(stmt)


class _Binder:
    """:func:`bind_parameters`' rewrite, as bound methods: a nested
    function that recursed through its own name would be a reference
    cycle left behind by every execution."""

    def __init__(self, values: Mapping[ParamKey, Any]) -> None:
        self.values = values

    def bind(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter) and node.key in self.values:
            return ast.Literal(self.values[node.key])
        return ast.map_children(node, self.bind, self.bind_stmt)

    def bind_stmt(self, sub: ast.SelectStmt) -> ast.SelectStmt:
        return ast.map_children(sub, self.bind, self.bind_stmt)
