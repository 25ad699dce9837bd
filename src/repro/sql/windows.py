"""Translating AST window calls to the window operator's vocabulary.

Window functions are translated to :class:`~repro.window.WindowCall` /
:class:`~repro.window.WindowSpec`, including the paper's extensions
(DISTINCT, function-level ORDER BY, FILTER, IGNORE NULLS, arbitrary
frame-bound expressions, EXCLUDE); their inputs are materialised as
hidden columns of the table the operator runs over.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SqlAnalysisError
from repro.sql import ast
from repro.sql.expr import Context, Relation, evaluate
from repro.sql.vector import Vector
from repro.table.column import Column, DataType
from repro.table.schema import Field, Schema
from repro.table.table import Table
from repro.window.calls import WindowCall
from repro.window.frame import (
    FrameBound,
    FrameExclusion,
    FrameMode,
    FrameSpec,
    OrderItem,
    WindowSpec,
    current_row,
    following,
    preceding,
    unbounded_following,
    unbounded_preceding,
)


_WINDOW_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})
_WINDOW_FUNCTIONS = frozenset({
    "rank", "dense_rank", "percent_rank", "cume_dist", "row_number",
    "ntile", "percentile_disc", "percentile_cont", "median", "mode",
    "first_value", "last_value", "nth_value", "lead", "lag",
}) | _WINDOW_AGGREGATES


class WindowBuilder:
    """Materialises window-function inputs as hidden columns and
    translates AST windows to engine specs."""

    def __init__(self, relation: Relation, ctx: Context) -> None:
        self.relation = relation
        self.ctx = ctx
        self.columns: List[Tuple[str, Vector]] = []
        self._cache: Dict[ast.Exact, str] = {}

    def _column_for(self, expr: ast.Expr) -> str:
        # ``x + 1`` and ``x + 1.0`` are two columns.
        key = ast.Exact(expr)
        if key in self._cache:
            return self._cache[key]
        if isinstance(expr, ast.ColumnRef):
            index = self.relation.resolve(expr.name, expr.table)
            if index is not None:
                # reuse the physical column directly
                name = f"__in_{len(self.columns)}"
                self.columns.append((name, self.relation.column(index)))
                self._cache[key] = name
                return name
        vector = evaluate(expr, self.relation, self.ctx)
        name = f"__in_{len(self.columns)}"
        self.columns.append((name, vector))
        self._cache[key] = name
        return name

    def _order_items(self,
                     items: Sequence[ast.SortItem]) -> Tuple[OrderItem, ...]:
        out = []
        for item in items:
            out.append(OrderItem(self._column_for(item.expr),
                                 item.descending, item.nulls_last))
        return tuple(out)

    # ------------------------------------------------------------------
    def translate_call(self, func: ast.FuncCall, output: str) -> WindowCall:
        name = func.name.lower()
        if name not in _WINDOW_FUNCTIONS:
            raise SqlAnalysisError(
                f"{func.name!r} is not a supported window function")
        kwargs: Dict[str, Any] = {"output": output}
        args: List[str] = []
        order_items = func.order_by or func.within_group

        if name in _WINDOW_AGGREGATES:
            if func.star or not func.args:
                name = "count_star" if name == "count" else name
                if name != "count_star":
                    raise SqlAnalysisError(f"{func.name} needs an argument")
            else:
                args.append(self._column_for(func.args[0]))
            kwargs["distinct"] = func.distinct
        elif name in ("percentile_disc", "percentile_cont"):
            if not func.args or not isinstance(func.args[0], ast.Literal):
                raise SqlAnalysisError(
                    f"{func.name} requires a constant fraction")
            kwargs["fraction"] = float(func.args[0].value)
            if not order_items:
                raise SqlAnalysisError(
                    f"{func.name} requires an ORDER BY clause")
            args.append(self._column_for(order_items[0].expr))
            kwargs["order_by"] = self._order_items(order_items)
        elif name == "median":
            if not func.args:
                raise SqlAnalysisError("median requires an argument")
            args.append(self._column_for(func.args[0]))
            if order_items:
                kwargs["order_by"] = self._order_items(order_items)
        elif name == "mode":
            # mode(x) or PostgreSQL-style mode() within group (order by x)
            if func.args:
                args.append(self._column_for(func.args[0]))
            elif order_items:
                args.append(self._column_for(order_items[0].expr))
            else:
                raise SqlAnalysisError(
                    "mode requires an argument or WITHIN GROUP clause")
        elif name == "ntile":
            if not func.args or not isinstance(func.args[0], ast.Literal):
                raise SqlAnalysisError("ntile requires a constant bucket count")
            kwargs["buckets"] = int(func.args[0].value)
            if order_items:
                kwargs["order_by"] = self._order_items(order_items)
        elif name in ("rank", "dense_rank", "percent_rank", "cume_dist",
                      "row_number"):
            if order_items:
                kwargs["order_by"] = self._order_items(order_items)
        elif name in ("first_value", "last_value", "nth_value"):
            args.append(self._column_for(func.args[0]))
            if name == "nth_value":
                if len(func.args) < 2 or not isinstance(func.args[1],
                                                        ast.Literal):
                    raise SqlAnalysisError(
                        "nth_value requires a constant position")
                kwargs["nth"] = int(func.args[1].value)
                kwargs["from_last"] = func.from_last
            kwargs["ignore_nulls"] = func.ignore_nulls
            if order_items:
                kwargs["order_by"] = self._order_items(order_items)
        elif name in ("lead", "lag"):
            args.append(self._column_for(func.args[0]))
            if len(func.args) >= 2:
                if not isinstance(func.args[1], ast.Literal):
                    raise SqlAnalysisError(
                        f"{func.name} offset must be constant")
                kwargs["offset"] = int(func.args[1].value)
            if len(func.args) >= 3:
                if not isinstance(func.args[2], ast.Literal):
                    raise SqlAnalysisError(
                        f"{func.name} default must be constant")
                kwargs["default"] = func.args[2].value
            kwargs["ignore_nulls"] = func.ignore_nulls
            if order_items:
                kwargs["order_by"] = self._order_items(order_items)
        if func.filter_where is not None:
            kwargs["filter_where"] = self._column_for(func.filter_where)
        return WindowCall(name, args, **kwargs)

    def translate_spec(self, window: ast.WindowDef) -> WindowSpec:
        partition = tuple(self._column_for(e) for e in window.partition_by)
        order = self._order_items(window.order_by)
        frame = None
        if window.frame is not None:
            frame = self._translate_frame(window.frame)
        return WindowSpec(partition_by=partition, order_by=order,
                          frame=frame)

    def _translate_frame(self, frame: ast.FrameAst) -> FrameSpec:
        mode = {"rows": FrameMode.ROWS, "range": FrameMode.RANGE,
                "groups": FrameMode.GROUPS}[frame.mode]
        exclusion = {"no_others": FrameExclusion.NO_OTHERS,
                     "current_row": FrameExclusion.CURRENT_ROW,
                     "group": FrameExclusion.GROUP,
                     "ties": FrameExclusion.TIES}[frame.exclusion]
        return FrameSpec(mode, self._translate_bound(frame.start, False),
                         self._translate_bound(frame.end, True), exclusion)

    def _translate_bound(self, bound: ast.FrameBoundAst,
                         is_end: bool) -> FrameBound:
        if bound.kind == "unbounded_preceding":
            return unbounded_preceding()
        if bound.kind == "unbounded_following":
            return unbounded_following()
        if bound.kind == "current_row":
            return current_row()
        offset = self._bound_offset(bound.offset)
        return preceding(offset) if bound.kind == "preceding" \
            else following(offset)

    def _bound_offset(self, expr: ast.Expr) -> Any:
        if isinstance(expr, ast.Literal) and isinstance(
                expr.value, (int, float)):
            return expr.value
        if isinstance(expr, ast.IntervalLiteral):
            return expr.days
        vector = evaluate(expr, self.relation, self.ctx)
        if not vector.validity.all():
            raise SqlAnalysisError("frame offsets must not be NULL")
        return np.asarray(vector.values)

    def build_table(self) -> Table:
        fields = []
        columns = []
        for name, vector in self.columns:
            # The table is the operator's input only, never a result.
            column = vector.source_column()
            if column is None:
                column = vector.to_column()
            fields.append(Field(name, column.dtype))
            columns.append(column)
        if not columns:
            # A window over an empty spec still needs a table of the
            # right cardinality.
            n = self.relation.n
            columns = [Column.from_numpy(DataType.INT64,
                                         np.zeros(n, dtype=np.int64))]
            fields = [Field("__pad", DataType.INT64)]
        return Table.from_columns(Schema(fields), columns)
