"""The plan executor: one driver, one operator per plan node.

:func:`execute` parses a statement, plans it
(:func:`repro.sql.plan.plan_statement`) and walks the resulting tree.
Every node runs through :func:`run`, the single place that applies the
cross-cutting work — deadline/cancellation checkpoint, fault-site
fire, trace span, row-ceiling guard, governor reservation release —
so an operator body is only its relational algebra:

* scans, hash joins (nested loops where the planner found no equi-key
  — the plan shape the paper observes for the Figure 9 traditional
  formulations), filter, group-by aggregation, projection, DISTINCT,
  ORDER BY and LIMIT over column vectors;
* window functions, handed to the window operator
  (:class:`~repro.window.operator.WindowOperator`) through
  :class:`~repro.sql.windows.WindowBuilder`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import NULL_SPAN, Tracer, trace_enabled_from_env
from repro.resilience.context import (
    ExecutionContext,
    activate,
    current_context,
)
from repro.errors import SqlAnalysisError
from repro.sql import ast, plan
from repro.sql.aggregates import compute_aggregate
from repro.sql.catalog import Catalog
from repro.sql.expr import Context, OuterRow, Relation, evaluate, infer_dtype
from repro.sql.parser import parse
from repro.sql.vector import Vector, from_column, truthy_rows
from repro.sql.windows import WindowBuilder
from repro.sortutil import SortColumn, stable_argsort
from repro.table.column import Column, DataType
from repro.table.schema import Field, Schema
from repro.table.table import Table
from repro.window.operator import WindowOperator


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def execute(sql_or_ast: Union[str, ast.SelectStmt], catalog: Catalog,
            cache: Any = None,
            context: Optional[ExecutionContext] = None,
            parallel: Any = None) -> Table:
    """Execute a SELECT statement and return the result table.

    ``cache`` is an optional :class:`repro.cache.StructureCache`; window
    index structures are acquired through it so repeated queries over
    unchanged data reuse their trees (see
    :class:`~repro.sql.session.Session`).

    ``parallel`` is an optional
    :class:`~repro.parallel.scheduler.WindowScheduler` governing
    morsel-driven window evaluation; without one the process-wide
    default (sized by ``REPRO_WORKERS``, serial when unset) is used.

    ``context`` is an optional
    :class:`~repro.resilience.context.ExecutionContext` carrying the
    query's deadline, cancellation token, resource limits and fault
    injector. It is installed as the calling thread's active context for
    the duration of the query, so every layer below — the plan driver,
    the window operator, evaluator loops, thread-pool workers —
    checkpoints against it without parameter plumbing. Without one, the
    query runs under the current (usually ambient, unarmed) context.
    """
    return execute_plan(sql_or_ast, catalog, cache, context, parallel)[0]


def execute_plan(sql_or_ast: Union[str, ast.SelectStmt], catalog: Catalog,
                 cache: Any = None,
                 context: Optional[ExecutionContext] = None,
                 parallel: Any = None
                 ) -> Tuple[Table, plan.StatementPlan, Dict[int, Any]]:
    """:func:`execute`, also returning the plan that ran and, when the
    query was traced, each plan node's span (keyed by ``id(node)``)."""
    own_tracer = None
    if context is None and trace_enabled_from_env():
        # The REPRO_TRACE CI leg exercises tracing even through bare
        # execute() calls (no Session): give the query its own traced
        # context for the duration.
        own_tracer = Tracer()
        context = ExecutionContext(tracer=own_tracer)
    try:
        if context is None:
            return _plan_and_run(sql_or_ast, catalog, cache,
                                 current_context(), parallel)
        with activate(context):
            context.checkpoint()
            return _plan_and_run(sql_or_ast, catalog, cache, context,
                                 parallel)
    finally:
        if own_tracer is not None:
            own_tracer.finish()


def _plan_and_run(sql_or_ast: Union[str, ast.SelectStmt], catalog: Catalog,
                  cache: Any, exec_ctx: ExecutionContext, parallel: Any
                  ) -> Tuple[Table, plan.StatementPlan, Dict[int, Any]]:
    stmt = _parse_traced(sql_or_ast, exec_ctx)
    statement = plan.plan_statement(stmt, catalog)
    ctx = Context(catalog, exec_ctx, cache, parallel)
    relation = run_statement(statement, ctx)
    return (_relation_to_table(relation, statement.names), statement,
            ctx.actuals)


def _parse_traced(sql_or_ast: Union[str, ast.SelectStmt],
                  exec_ctx: ExecutionContext) -> ast.SelectStmt:
    """Parse SQL text under a ``parse`` span (already-parsed ASTs pass
    straight through — they were parsed, and possibly traced, earlier)."""
    if not isinstance(sql_or_ast, str):
        return sql_or_ast
    with exec_ctx.tracer.span("parse", chars=len(sql_or_ast)):
        return parse(sql_or_ast)


def _relation_to_table(relation: Relation, names: Tuple[str, ...]) -> Table:
    used: Dict[str, int] = {}
    fields = []
    columns = []
    for vector, name in zip(relation.vectors, names):
        base = name or "col"
        if base.lower() in used:
            used[base.lower()] += 1
            base = f"{base}_{used[base.lower()]}"
        else:
            used[base.lower()] = 0
        column = vector.to_column()
        fields.append(Field(base, column.dtype))
        columns.append(column)
    return Table.from_columns(Schema(fields), columns)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_statement(statement: plan.StatementPlan, ctx: Context) -> Relation:
    """Materialize the statement's WITH chain, then run its root.

    CTE results stay charged to the governor (ledger tag ``cte``) until
    the statement finishes, so memory pressure sees them as resident
    bytes, not free lunch."""
    if not statement.ctes:
        return run(statement.root, ctx)
    ctx = replace(ctx, ctes=dict(ctx.ctes))
    mark = len(ctx.reservations)
    try:
        for cte in statement.ctes:
            ctx.ctes[cte.name.lower()] = run(cte, ctx)
        return run(statement.root, ctx)
    finally:
        ctx.release(mark)


def run(node: plan.PlanNode, ctx: Context) -> Relation:
    """Run one plan node (its inputs included) and return its output.

    Plan nodes are the executor's batch boundaries, and this is the
    one place their guardrails live: checkpoint the deadline and the
    cancellation token, fire the node's fault site, open the node's
    span (annotated with the output row count, recorded in
    ``ctx.actuals`` for EXPLAIN ANALYZE), hold the materialised output
    to the row ceiling, and release the governor reservations the
    operator took unless the node's result outlives it."""
    exec_ctx = ctx.exec
    exec_ctx.checkpoint()
    if node.fault_site is not None:
        exec_ctx.fire(node.fault_site)
    mark = len(ctx.reservations)
    try:
        with exec_ctx.tracer.span(node.span, **node.span_attrs()) as span:
            if span is not NULL_SPAN:
                ctx.actuals[id(node)] = span
            relation = _OPERATORS[type(node)](node, ctx)
            exec_ctx.guard_rows(relation.n)
            span.annotate(rows=relation.n)
            return relation
    finally:
        if not node.keeps_reservation:
            ctx.release(mark)


# ----------------------------------------------------------------------
# scans and joins
# ----------------------------------------------------------------------
def _scan(node: plan.ScanNode, ctx: Context) -> Relation:
    if node.source == "cte":
        return ctx.ctes[node.table.lower()].requalified(node.qualifier)
    return Relation.from_table(ctx.catalog.lookup(node.table),
                               node.qualifier)


def _values(node: plan.ValuesNode, ctx: Context) -> Relation:
    # A single pseudo-row so expressions like SELECT 1+1 work.
    return Relation([Vector(np.zeros(1, dtype=np.int64),
                            np.ones(1, dtype=np.bool_), DataType.INT64)],
                    [(None, "__dual")])


def _subquery(node: plan.SubqueryNode, ctx: Context) -> Relation:
    return run_statement(node.plan, ctx).requalified(node.alias.lower())


def _cte(node: plan.CTENode, ctx: Context) -> Relation:
    relation = run_statement(node.plan, ctx)
    ctx.reserve(_relation_bytes(relation), "cte")
    return relation


def _relation_bytes(relation: Relation) -> int:
    """Resident-byte estimate of a materialized relation (strings are
    approximated; exactness is not the governor's contract)."""
    total = 0
    for vector in relation.vectors:
        if vector.is_numpy:
            total += vector.values.nbytes
        else:
            total += sum(56 + len(value) if isinstance(value, str) else 56
                         for value in vector.values)
        total += vector.validity.nbytes
    return total


def _nested_loop_join(node: plan.NestedLoopJoinNode,
                      ctx: Context) -> Relation:
    left = run(node.left, ctx)
    right = run(node.right, ctx)
    left_rows: List[np.ndarray] = []
    right_rows: List[np.ndarray] = []
    for i in range(left.n):
        if node.condition is None:
            left_rows.append(np.full(right.n, i, dtype=np.int64))
            right_rows.append(np.arange(right.n, dtype=np.int64))
            continue
        # Vectorised predicate per left row. This is the O(n^2) plan
        # the Figure 9 baselines are stuck with — which is exactly why
        # its outer loop must stay interruptible.
        ctx.exec.checkpoint()
        matches = _matching(node.condition, left, i, right, ctx)
        _emit_matches(node.kind, i, matches, left_rows, right_rows)
    return _assemble_join(left, right, left_rows, right_rows)


def _matching(predicate: ast.Expr, left: Relation, row: int,
              candidates: Relation, ctx: Context) -> np.ndarray:
    """Indices of the ``candidates`` rows the predicate accepts, with
    left row ``row`` visible as the enclosing (outer) row."""
    inner_ctx = replace(ctx, outer=OuterRow(left, row, parent=ctx.outer))
    return np.flatnonzero(
        truthy_rows(evaluate(predicate, candidates, inner_ctx)))


def _emit_matches(kind: str, row: int, matches: np.ndarray,
                  left_rows: List[np.ndarray],
                  right_rows: List[np.ndarray]) -> int:
    """Append one left row's join output; returns the rows emitted."""
    if len(matches) == 0:
        if kind != "left":
            return 0
        matches = np.array([-1], dtype=np.int64)  # NULL-extended
    left_rows.append(np.full(len(matches), row, dtype=np.int64))
    right_rows.append(matches)
    return len(matches)


def _assemble_join(left: Relation, right: Relation,
                   left_rows: List[np.ndarray],
                   right_rows: List[np.ndarray]) -> Relation:
    if left_rows:
        left_index = np.concatenate(left_rows)
        right_index = np.concatenate(right_rows)
    else:
        left_index = np.empty(0, dtype=np.int64)
        right_index = np.empty(0, dtype=np.int64)
    left_part = left.take(left_index)
    unmatched = right_index < 0
    right_part = right.take(np.where(unmatched, 0, right_index))
    if unmatched.any():
        for vector in right_part.vectors:
            vector.validity = vector.validity & ~unmatched
    return left_part.concat_columns(right_part)


#: Rough per-row hash-table cost charged for the build side: the key
#: tuple, the bucket list entry and dict overhead amortised.
_HASH_ENTRY_BYTES = 120

_NO_MATCHES = np.empty(0, dtype=np.int64)


def _join_key_column(expr: ast.Expr, relation: Relation,
                     ctx: Context) -> Tuple[List[Any], np.ndarray]:
    """One key expression as (raw values list, validity). Raw storage
    values (day ordinals for dates) — equality on them matches SQL
    ``=`` for every type the nested loop would accept."""
    vector = evaluate(expr, relation, ctx)
    if vector.is_numpy:
        return vector.values.tolist(), vector.validity
    return list(vector.values), vector.validity


def _hash_join(node: plan.HashJoinNode, ctx: Context) -> Relation:
    """Equi-keyed inner/left join via a build-side hash table.

    Reproduces the nested-loop output contract bit for bit: one pass
    over left rows in order, matches in right-scan order (bucket lists
    append ascending indices), NULL keys never match, the residual
    predicate is evaluated per probe row against the matched build
    rows with the same OuterRow chain the nested loop uses."""
    left = run(node.left, ctx)
    right = run(node.right, ctx)
    exec_ctx = ctx.exec
    tracer = exec_ctx.tracer
    ctx.reserve(_HASH_ENTRY_BYTES * (right.n + 1), "join")
    table: Dict[Tuple[Any, ...], List[int]] = {}
    with tracer.span("join.build", rows=right.n,
                     keys=len(node.keys)) as span:
        build_cols = [_join_key_column(expr, right, ctx)
                      for _l, expr in node.keys]
        for i in range(right.n):
            if i % 8192 == 0:
                exec_ctx.checkpoint()
            key = _row_key(build_cols, i)
            if key is not None:
                table.setdefault(key, []).append(i)
        span.annotate(buckets=len(table))

    emitted = 0
    left_rows: List[np.ndarray] = []
    right_rows: List[np.ndarray] = []
    with tracer.span("join.probe", rows=left.n) as span:
        probe_cols = [_join_key_column(expr, left, ctx)
                      for expr, _r in node.keys]
        for i in range(left.n):
            if i % 4096 == 0:
                exec_ctx.checkpoint()
            key = _row_key(probe_cols, i)
            bucket = None if key is None else table.get(key)
            if bucket is not None:
                matches = np.asarray(bucket, dtype=np.int64)
                if node.residual is not None:
                    matches = matches[_matching(
                        node.residual, left, i, right.take(matches), ctx)]
            elif node.kind == "left":
                matches = _NO_MATCHES
            else:
                continue
            emitted += _emit_matches(node.kind, i, matches,
                                     left_rows, right_rows)
        span.annotate(matches=emitted)
    return _assemble_join(left, right, left_rows, right_rows)


def _row_key(columns: List[Tuple[List[Any], np.ndarray]],
             row: int) -> Optional[Tuple[Any, ...]]:
    """The hash key for one row, or None when any key part is NULL
    (SQL equality with NULL is never true, so the row cannot match)."""
    key = []
    for values, validity in columns:
        if not validity[row]:
            return None
        key.append(values[row])
    return tuple(key)


# ----------------------------------------------------------------------
# filter, aggregation, windows
# ----------------------------------------------------------------------
def _filter(node: plan.FilterNode, ctx: Context) -> Relation:
    relation = run(node.input, ctx)
    mask = truthy_rows(evaluate(node.predicate, relation, ctx))
    return relation.take(np.flatnonzero(mask))


def _aggregate(node: plan.AggregateNode, ctx: Context) -> Relation:
    relation = run(node.input, ctx)
    # Group assignment.
    group_vectors = [evaluate(e, relation, ctx) for e in node.group_by]
    groups: Dict[Tuple, List[int]] = {}
    order: List[Tuple] = []
    if node.group_by:
        for row in range(relation.n):
            key = tuple(v.python_value(row) for v in group_vectors)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
    else:
        groups[()] = list(range(relation.n))
        order.append(())

    out = Relation([], [])
    if group_vectors:
        firsts = np.array([groups[key][0] for key in order], dtype=np.int64)
        for i, vector in enumerate(group_vectors):
            out.add(vector.take(firsts), f"__group_{i}")
    for i, agg in enumerate(node.aggregates):
        out.add(_compute_aggregate_vector(agg, relation, groups, order, ctx),
                f"__agg_{i}")
    if node.having_filter is not None:
        mask = truthy_rows(evaluate(node.having_filter, out, ctx))
        out = out.take(np.flatnonzero(mask))
    return out


def _compute_aggregate_vector(agg: ast.FuncCall, relation: Relation,
                              groups: Dict[Tuple, List[int]],
                              order: List[Tuple], ctx: Context) -> Vector:
    arg = None
    if agg.args:
        arg = evaluate(agg.args[0], relation, ctx)
    order_values = None
    order_descending = False
    if agg.within_group:
        order_values = evaluate(agg.within_group[0].expr, relation, ctx)
        order_descending = agg.within_group[0].descending
    elif agg.order_by:
        order_values = evaluate(agg.order_by[0].expr, relation, ctx)
        order_descending = agg.order_by[0].descending
    fraction = None
    if agg.name.lower() in ("percentile_disc", "percentile_cont"):
        if not agg.args or not isinstance(agg.args[0], ast.Literal):
            raise SqlAnalysisError(
                f"{agg.name} requires a constant fraction")
        fraction = float(agg.args[0].value)
        arg = None
    filter_mask = None
    if agg.filter_where is not None:
        filter_mask = truthy_rows(evaluate(agg.filter_where, relation, ctx))
    results = []
    for key in order:
        rows = groups[key]
        if filter_mask is not None:
            rows = [r for r in rows if filter_mask[r]]
        results.append(compute_aggregate(
            agg.name, rows=rows, star=agg.star, distinct=agg.distinct,
            arg=arg, order_values=order_values,
            order_descending=order_descending, fraction=fraction))
    column = Column(infer_dtype(results), results)
    return from_column(column)


def _window(node: plan.WindowNode, ctx: Context) -> Relation:
    relation = run(node.input, ctx)
    with ctx.exec.tracer.span("plan", calls=len(node.calls),
                              rows=relation.n):
        builder = WindowBuilder(relation, ctx)
        calls = [(builder.translate_call(call.func, f"__win_{i}"),
                  builder.translate_spec(window))
                 for i, (call, window) in enumerate(node.calls)]
        table = builder.build_table()
    operator = WindowOperator(table, cache=ctx.cache, parallel=ctx.parallel)
    for call, spec in calls:
        operator.add(call, spec)
    result = operator.run()

    extended = Relation(list(relation.vectors), list(relation.bindings))
    for i, (call, _spec) in enumerate(calls):
        extended.add(from_column(result.column(call.output)), f"__wout_{i}")
    return extended


# ----------------------------------------------------------------------
# projection, DISTINCT, ORDER BY, LIMIT
# ----------------------------------------------------------------------
def _project(node: plan.ProjectNode, ctx: Context) -> Relation:
    relation = run(node.input, ctx)
    vectors = [relation.vectors[column] if isinstance(column, int)
               else evaluate(column, relation, ctx)
               for column in node.columns]
    return Relation(vectors, [(None, name.lower()) for name in node.names],
                    source=relation)


def _distinct(node: plan.DistinctNode, ctx: Context) -> Relation:
    output = run(node.input, ctx)
    seen = set()
    keep = []
    for row in range(output.n):
        key = tuple(v.python_value(row) for v in output.vectors)
        if key not in seen:
            seen.add(key)
            keep.append(row)
    rows = np.asarray(keep, dtype=np.int64)
    distinct = output.take(rows)
    if output.source is not None:  # stay row-aligned for ORDER BY
        distinct.source = output.source.take(rows)
    return distinct


def _sort(node: plan.SortNode, ctx: Context) -> Relation:
    output = run(node.input, ctx)
    source = output.source
    combined = output if source is None else Relation(
        source.vectors + output.vectors, source.bindings + output.bindings)
    sort_columns = []
    for item in node.keys:
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(output.vectors):
                raise SqlAnalysisError(
                    f"ORDER BY position {expr.value} out of range")
            vector = output.vectors[position]
        elif (isinstance(expr, ast.ColumnRef) and expr.table is None
              and output.resolve(expr.name, None) is not None):
            # SQL resolves bare ORDER BY names against the SELECT list
            # first, then against the input columns.
            vector = output.vectors[output.resolve(expr.name, None)]
        else:
            vector = evaluate(expr, combined, ctx)
        nulls_last = item.nulls_last if item.nulls_last is not None \
            else not item.descending
        sort_columns.append(SortColumn(vector.values, item.descending,
                                       nulls_last, vector.validity))
    order = stable_argsort(sort_columns, output.n)
    return output.take(order)


def _limit(node: plan.LimitNode, ctx: Context) -> Relation:
    output = run(node.input, ctx)
    return output.take(np.arange(min(node.count, output.n)))


_OPERATORS: Dict[type, Callable[[Any, Context], Relation]] = {
    plan.ScanNode: _scan,
    plan.ValuesNode: _values,
    plan.SubqueryNode: _subquery,
    plan.CTENode: _cte,
    plan.HashJoinNode: _hash_join,
    plan.NestedLoopJoinNode: _nested_loop_join,
    plan.FilterNode: _filter,
    plan.AggregateNode: _aggregate,
    plan.WindowNode: _window,
    plan.ProjectNode: _project,
    plan.DistinctNode: _distinct,
    plan.SortNode: _sort,
    plan.LimitNode: _limit,
}
