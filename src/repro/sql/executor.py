"""The plan executor: one driver, one operator per plan node.

:func:`execute` parses a statement, plans it
(:func:`repro.sql.plan.plan_statement`) and walks the resulting tree.
Every node runs through :func:`run`, the single place that applies the
cross-cutting work — deadline/cancellation checkpoint, fault-site
fire, trace span, row-ceiling guard, governor reservation release —
so an operator body is only its relational algebra:

* scans, equi-joins (nested loops where the planner found no equi-key
  — the plan shape the paper observes for the Figure 9 traditional
  formulations), filter, group-by aggregation, projection, DISTINCT,
  ORDER BY and LIMIT over column vectors. Whatever compares key
  tuples — join, GROUP BY, DISTINCT — does so on the dense integer
  codes of :func:`repro.sql.keys.key_codes`, and ORDER BY on the
  normalised keys of :func:`repro.sortutil.stable_argsort`, with numpy
  sorting, searching and scattering in place of per-row loops;
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
from repro.sql.aggregates import grouped_aggregate
from repro.sql.catalog import Catalog
from repro.sql.expr import Context, OuterRow, Relation, evaluate
from repro.sql.keys import first_occurrence, key_codes
from repro.sql.parser import parse
from repro.sql.vector import (
    Vector,
    from_column,
    stacked,
    truthy_rows,
)
from repro.sql.windows import WindowBuilder
from repro.sortutil import SortColumn, stable_argsort
from repro.table.column import DataType
from repro.table.schema import Field, Schema
from repro.table.table import Table
from repro.window.operator import WindowOperator


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def execute(sql_or_ast: Union[str, ast.SelectStmt], catalog: Catalog,
            cache: Any = None,
            context: Optional[ExecutionContext] = None) -> Table:
    """Execute a SELECT statement and return the result table.

    ``cache`` is an optional :class:`repro.cache.StructureCache`; window
    index structures are acquired through it so repeated queries over
    unchanged data reuse their trees (see
    :class:`~repro.sql.session.Session`).

    ``context`` is an optional
    :class:`~repro.resilience.context.ExecutionContext` carrying the
    query's deadline, cancellation token, resource limits and fault
    injector. It is installed as the calling thread's active context for
    the duration of the query, so every layer below — the plan driver,
    the window operator, evaluator loops —
    checkpoints against it without parameter plumbing. Without one, the
    query runs under the current (usually ambient, unarmed) context.
    """
    return execute_plan(sql_or_ast, catalog, cache, context)[0]


def execute_plan(sql_or_ast: Union[str, ast.SelectStmt], catalog: Catalog,
                 cache: Any = None,
                 context: Optional[ExecutionContext] = None
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
                                 current_context())
        with activate(context):
            context.checkpoint()
            return _plan_and_run(sql_or_ast, catalog, cache, context)
    finally:
        if own_tracer is not None:
            own_tracer.finish()


def _plan_and_run(sql_or_ast: Union[str, ast.SelectStmt], catalog: Catalog,
                  cache: Any, exec_ctx: ExecutionContext
                  ) -> Tuple[Table, plan.StatementPlan, Dict[int, Any]]:
    stmt = _parse_traced(sql_or_ast, exec_ctx)
    statement = plan.plan_statement(stmt, catalog)
    ctx = Context(catalog, exec_ctx, cache)
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
        total += vector.values.nbytes + vector.validity.nbytes
        if vector.values.dtype == object:
            total += sum(56 + len(value) for value in vector.values.tolist())
    return total


def _nested_loop_join(node: plan.NestedLoopJoinNode,
                      ctx: Context) -> Relation:
    left = run(node.left, ctx)
    right = run(node.right, ctx)
    left_rows: List[np.ndarray] = []
    right_rows: List[np.ndarray] = []
    everything = np.arange(right.n, dtype=np.int64)
    for i in range(left.n):
        matches = everything
        if node.condition is not None:
            # Vectorised predicate per left row. This is the O(n^2)
            # plan the Figure 9 baselines are stuck with — which is
            # exactly why its outer loop must stay interruptible.
            ctx.exec.checkpoint()
            matches = _matching(node.condition, left, i, right, ctx)
        _emit_matches(node.kind, i, matches, left_rows, right_rows)
    if not left_rows:
        left_rows = right_rows = [np.empty(0, dtype=np.int64)]
    return _assemble_join(left, right, np.concatenate(left_rows),
                          np.concatenate(right_rows))


def _matching(predicate: ast.Expr, left: Relation, row: int,
              candidates: Relation, ctx: Context) -> np.ndarray:
    """Indices of the ``candidates`` rows the predicate accepts, with
    left row ``row`` visible as the enclosing (outer) row."""
    inner_ctx = replace(ctx, outer=OuterRow(left, row, parent=ctx.outer))
    return np.flatnonzero(
        truthy_rows(evaluate(predicate, candidates, inner_ctx)))


def _emit_matches(kind: str, row: int, matches: np.ndarray,
                  left_rows: List[np.ndarray],
                  right_rows: List[np.ndarray]) -> None:
    """Append one left row's join output."""
    if len(matches) == 0:
        if kind != "left":
            return
        matches = np.array([-1], dtype=np.int64)  # NULL-extended
    left_rows.append(np.full(len(matches), row, dtype=np.int64))
    right_rows.append(matches)


def _assemble_join(left: Relation, right: Relation,
                   left_index: np.ndarray,
                   right_index: np.ndarray) -> Relation:
    """The joined relation for row pairs ``(left_index[k],
    right_index[k])``; a right index of -1 NULL-extends the left row.
    Nothing is gathered: each side carries its composed row index."""
    return left.take(left_index).concat_columns(right.take(right_index))


def _hash_join(node: plan.HashJoinNode, ctx: Context) -> Relation:
    """Equi-keyed inner/left join on key codes.

    Reproduces the nested-loop output contract bit for bit: left rows
    in order, each one's matches in ascending right-row order (a
    stable sort of the build codes keeps equal keys in scan order, so
    a probe key's matches are one contiguous, ascending range), NULL
    keys never match, and the residual predicate sees exactly the
    key-matched pairs — all of them at once."""
    left = run(node.left, ctx)
    right = run(node.right, ctx)
    exec_ctx = ctx.exec
    tracer = exec_ctx.tracer
    # Every index array is charged before it is allocated, at 8 bytes
    # an entry: here both sides' codes, the build order and its codes.
    ctx.reserve(8 * (left.n + 3 * right.n), "join")
    with tracer.span("join.build", rows=right.n,
                     keys=len(node.keys)) as span:
        codes = key_codes(
            [stacked(evaluate(left_key, left, ctx),
                     evaluate(right_key, right, ctx))
             for left_key, right_key in node.keys], sql_equal=True)
        probe, build = codes[:left.n], codes[left.n:]
        build_rows = np.flatnonzero(build >= 0)
        build_rows = build_rows[np.argsort(build[build_rows], kind="stable")]
        build = build[build_rows]
        span.annotate(buckets=int(np.count_nonzero(build[1:] != build[:-1]))
                      + (len(build) > 0))

    exec_ctx.checkpoint()
    with tracer.span("join.probe", rows=left.n) as span:
        ctx.reserve(8 * 2 * left.n, "join")  # first, counts
        first = np.searchsorted(build, probe, side="left")
        counts = np.searchsorted(build, probe, side="right") - first
        pairs = int(counts.sum())
        exec_ctx.guard_rows(pairs)
        ctx.reserve(8 * 3 * pairs, "join")  # left/right index, within
        left_index = np.repeat(np.arange(left.n, dtype=np.int64), counts)
        # Pair k of left row i is the (k - offset_i)-th of i's range.
        within = np.arange(pairs, dtype=np.int64) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        right_index = build_rows[np.repeat(first, counts) + within]
        if node.residual is not None:
            candidates = left.take(left_index).concat_columns(
                right.take(right_index))
            keep = truthy_rows(evaluate(node.residual, candidates, ctx))
            left_index, right_index = left_index[keep], right_index[keep]
        if node.kind == "left":
            matched = np.zeros(left.n, dtype=np.bool_)
            matched[left_index] = True
            lonely = np.flatnonzero(~matched)
            left_index = np.concatenate([left_index, lonely])
            right_index = np.concatenate(
                [right_index, np.full(len(lonely), -1, dtype=np.int64)])
            # Stable on the left index: the NULL-extended rows fall
            # into left-row order, matched rows keep theirs.
            order = np.argsort(left_index, kind="stable")
            left_index, right_index = left_index[order], right_index[order]
        span.annotate(matches=len(left_index))
    return _assemble_join(left, right, left_index, right_index)


# ----------------------------------------------------------------------
# filter, aggregation, windows
# ----------------------------------------------------------------------
def _filter(node: plan.FilterNode, ctx: Context) -> Relation:
    """Each top-level conjunct, in the order written, sees only the
    rows the ones before it kept; once no row is left the rest are not
    evaluated."""
    relation = run(node.input, ctx)
    for i, conjunct in enumerate(plan.split_conjuncts(node.predicate)):
        if i and not relation.n:
            break
        mask = truthy_rows(evaluate(conjunct, relation, ctx))
        if not mask.all():
            relation = relation.take(np.flatnonzero(mask))
    return relation


def _aggregate(node: plan.AggregateNode, ctx: Context) -> Relation:
    relation = run(node.input, ctx)
    out = Relation([], [])
    if node.group_by:
        # Groups are numbered in first-seen order; rows keep relation
        # order within their group.
        keys = [evaluate(e, relation, ctx) for e in node.group_by]
        groups, firsts = first_occurrence(key_codes(keys))
        for i, vector in enumerate(keys):
            out.add(vector.take(firsts), f"__group_{i}")
        n_groups = len(firsts)
    else:
        groups, n_groups = np.zeros(relation.n, dtype=np.int64), 1
    for i, agg in enumerate(node.aggregates):
        out.add(_aggregate_vector(agg, relation, groups, n_groups, ctx),
                f"__agg_{i}")
    if node.having_filter is not None:
        mask = truthy_rows(evaluate(node.having_filter, out, ctx))
        out = out.take(np.flatnonzero(mask))
    return out


def _aggregate_vector(agg: ast.FuncCall, relation: Relation,
                      groups: np.ndarray, n_groups: int,
                      ctx: Context) -> Vector:
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
    selected = None
    if agg.filter_where is not None:
        selected = truthy_rows(evaluate(agg.filter_where, relation, ctx))
    return grouped_aggregate(
        agg.name, groups, n_groups, star=agg.star, distinct=agg.distinct,
        arg=arg, selected=selected, order_values=order_values,
        order_descending=order_descending, fraction=fraction)


def _window(node: plan.WindowNode, ctx: Context) -> Relation:
    """The input plus one column per call; under a row demand
    (``node.rows``) only the demanded leading rows, and only they are
    answered."""
    relation = run(node.input, ctx)
    with ctx.exec.tracer.span("plan", calls=len(node.calls),
                              rows=relation.n):
        builder = WindowBuilder(relation, ctx)
        calls = [(builder.translate_call(call.func, f"__win_{i}"),
                  builder.translate_spec(window))
                 for i, (call, window) in enumerate(node.calls)]
        table = builder.build_table()
    demand = None
    if node.rows is not None:
        demand = np.arange(min(node.rows, relation.n), dtype=np.int64)
        relation = relation.take(demand)
    operator = WindowOperator(table, cache=ctx.cache, rows=demand)
    for call, spec in calls:
        operator.add(call, spec)
    result = operator.run()

    extended = relation.copy()
    for i, (call, _spec) in enumerate(calls):
        extended.add(from_column(result.column(call.output)), f"__wout_{i}")
    return extended


# ----------------------------------------------------------------------
# projection, DISTINCT, ORDER BY, LIMIT
# ----------------------------------------------------------------------
def _project(node: plan.ProjectNode, ctx: Context) -> Relation:
    relation = run(node.input, ctx)
    vectors = [relation.column(column) if isinstance(column, int)
               else evaluate(column, relation, ctx)
               for column in node.columns]
    return Relation(vectors, [(None, name.lower()) for name in node.names],
                    source=relation)


def _distinct(node: plan.DistinctNode, ctx: Context) -> Relation:
    output = run(node.input, ctx)
    _groups, rows = first_occurrence(key_codes(output.vectors))
    distinct = output.take(rows)
    if output.source is not None:  # stay row-aligned for ORDER BY
        distinct.source = output.source.take(rows)
    return distinct


def _sort(node: plan.SortNode, ctx: Context) -> Relation:
    output = run(node.input, ctx)
    source = output.source
    combined = output if source is None else source.concat_columns(output)
    sort_columns = []
    for item in node.keys:
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < output.width:
                raise SqlAnalysisError(
                    f"ORDER BY position {expr.value} out of range")
            vector = output.column(position)
        elif (isinstance(expr, ast.ColumnRef) and expr.table is None
              and output.resolve(expr.name, None) is not None):
            # SQL resolves bare ORDER BY names against the SELECT list
            # first, then against the input columns.
            vector = output.column(output.resolve(expr.name, None))
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
