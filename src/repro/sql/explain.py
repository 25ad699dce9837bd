"""EXPLAIN: a human-readable rendering of the logical plan.

:func:`render` prints the tree :func:`repro.sql.plan.plan_statement`
builds — the same tree the executor walks — so what EXPLAIN shows is
what runs: scans, hash or nested-loop joins, filters, aggregations,
window evaluations, sorts. Useful for confirming that the Figure 9
formulations really run as the O(n^2) nested-loop / correlated-subquery
shapes the paper describes. EXPLAIN ANALYZE annotates each node from
the span the executor's driver opened for that very node.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.errors import SqlAnalysisError
from repro.sql import ast
from repro.sql import plan as logical_plan
from repro.sql.parser import parse


def explain(sql_or_ast: Union[str, ast.SelectStmt],
            cache: Any = None, health: Any = None,
            gateway: Any = None, breakers: Any = None,
            analysis: Any = None,
            plan_cache: Any = None, memory: Any = None,
            catalog: Any = None) -> str:
    """Render the execution plan of a SELECT statement as a tree.

    With a :class:`repro.cache.StructureCache` (or via
    :meth:`repro.sql.session.Session.explain`) the rendering appends
    the session's structure-cache counters, so warm-serving behaviour
    is observable the same way the plan shape is.

    ``health`` is an optional
    :class:`~repro.resilience.context.HealthCounters`; when any
    guardrail event has been recorded (timeout, cancellation,
    evaluator fallback, injected fault, limit hit, shed query, breaker
    trip, verification failure) a ``Resilience``
    section lists the counters and each recorded evaluator downgrade —
    so a query that silently degraded to a baseline evaluator is still
    visible after the fact.

    ``gateway`` (a :class:`~repro.resilience.gateway.QueryGateway`) and
    ``breakers`` (a :class:`~repro.resilience.circuit.BreakerRegistry`)
    add ``Gateway`` / ``Breakers`` sections once they have seen any
    traffic, so admission behaviour and breaker states under concurrent
    load are observable next to the plan.

    ``analysis`` (a :class:`~repro.sql.result.QueryResult` from an
    actual execution, as produced by ``Session.explain(sql,
    analyze=True)``) turns the rendering into EXPLAIN ANALYZE: plan
    nodes are annotated with that execution's actual row counts and
    wall times, and an ``Execution (actual)`` section summarises the
    per-phase timings and cache build/reuse counts recorded by the
    query's trace.

    ``catalog`` (a :class:`~repro.sql.catalog.Catalog`) plans the
    statement against real table scopes, so equi-keyed inner/left
    joins render as ``HashJoin`` nodes — the plan the executor runs.
    Without a catalog (or when the statement names an unknown table,
    which fails properly at execution) the same planner produces a
    purely syntactic tree: every join a ``NestedLoopJoin``.

    The first argument may also be an already-built
    :class:`~repro.sql.plan.StatementPlan` (how ``QueryResult.explain``
    renders the plan that actually ran)."""
    plan = sql_or_ast
    if not isinstance(plan, logical_plan.StatementPlan):
        stmt = parse(plan) if isinstance(plan, str) else plan
        try:
            plan = logical_plan.plan_statement(stmt, catalog)
        except SqlAnalysisError:
            plan = logical_plan.plan_statement(stmt, None)
    lines = render(plan, analysis).split("\n")
    if plan_cache is not None:
        stats = plan_cache.stats()
        # Quiet until it has seen traffic, like the Gateway section.
        if stats.hits or stats.misses:
            lines.append("PlanCache")
            for line in stats.render():
                lines.append("  " + line)
    if cache is not None:
        lines.append("StructureCache")
        for line in cache.stats().render():
            lines.append("  " + line)
    if gateway is not None:
        stats = gateway.stats()
        if stats.admitted or stats.shed or stats.active:
            lines.append("Gateway")
            for line in stats.render():
                lines.append("  " + line)
    if breakers is not None:
        breaker_lines = breakers.render()
        if breaker_lines:
            lines.append("Breakers")
            for line in breaker_lines:
                lines.append("  " + line)
    if health is not None and (health.eventful or health.downgrades):
        lines.append("Resilience")
        for line in health.render():
            lines.append("  " + line)
    if memory is not None:
        stats = memory.stats()
        # Quiet for unbudgeted sessions with no pressure events, so the
        # golden EXPLAIN outputs of ordinary queries stay unchanged.
        if stats.eventful:
            lines.append("Memory")
            for line in stats.render():
                lines.append("  " + line)
    if analysis is not None:
        lines.extend(_execution_section(analysis))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE: annotate the plan with one execution's trace
# ----------------------------------------------------------------------
def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


def _execution_section(analysis: Any) -> List[str]:
    """The ``Execution (actual)`` EXPLAIN section for one execution."""
    lines = ["Execution (actual)"]
    stats = getattr(analysis, "stats", None)
    if stats is not None:
        for entry in stats.render().splitlines():
            lines.append("  " + entry)
    root = getattr(analysis, "trace", None)
    if root is None:
        return lines
    phase_order = ["gateway.wait", "parse", "plan", "cte.materialize",
                   "join.build", "join.probe", "partition",
                   "window.group", "structure.build", "probe"]
    totals = {name: [0, 0.0] for name in phase_order}
    for span in root.walk():
        bucket = totals.get(span.name)
        if bucket is not None:
            bucket[0] += 1
            bucket[1] += span.duration
    phases = [f"{name}={_ms(total)} (x{count})"
              for name, (count, total) in totals.items() if count]
    if phases:
        lines.append("  phases: " + " ".join(phases))
    reuses = len(root.find_all("structure.reuse"))
    builds = root.find_all("structure.build")
    for span in builds:
        suffix = "".join(f" {name}={span.attrs[name]}"
                         for name in ("key", "layout") if name in span.attrs)
        lines.append(f"  structure.build {span.attrs.get('kind', '?')}"
                     f"{suffix} {_ms(span.duration)}")
    if reuses:
        lines.append(f"  structure.reuse x{reuses}")
    return lines


def render(plan: logical_plan.StatementPlan, analysis: Any = None) -> str:
    """The plan tree as indented text, one line per node.

    ``analysis`` (a traced :class:`~repro.sql.result.QueryResult`)
    appends ``(actual: ...)`` to every node that ran, read from that
    node's own span: output rows and wall time (inputs included), each
    hash join's own build/probe figures, each window's own group
    timings. The statement's ``Project`` also carries the query total;
    structure build/reuse counts are the whole query's."""
    lines: List[str] = []
    actuals: Dict[int, Any] = getattr(analysis, "actuals", None) or {}

    def suffix(node: Any) -> str:
        span = actuals.get(id(node))
        if span is None:
            return ""
        rows = span.attrs.get("rows", "?")
        if isinstance(node, logical_plan.ScanNode):
            parts = [f"rows={rows}"]
        elif node is plan.project:
            parts = [f"rows={rows}", f"total={_ms(analysis.trace.duration)}"]
        elif isinstance(node, logical_plan.HashJoinNode):
            phases = {child.name: child for child in span.children}
            build = phases.get("join.build")
            probe = phases.get("join.probe")
            parts = []
            if build is not None:
                parts += [f"build_rows={build.attrs.get('rows', '?')}",
                          f"build={_ms(build.duration)}"]
            if probe is not None:
                parts += [f"matches={probe.attrs.get('matches', '?')}",
                          f"probe={_ms(probe.duration)}"]
        elif isinstance(node, logical_plan.WindowNode):
            groups = span.find_all("window.group")
            parts = [f"groups={len(groups)}",
                     f"answered="
                     f"{sum(g.attrs.get('answered', 0) for g in groups)}",
                     f"time={_ms(sum(g.duration for g in groups))}",
                     f"builds={analysis.stats.structure_builds}",
                     f"reuses={analysis.stats.structure_reuses}"]
        else:
            parts = [f"rows={rows}", f"time={_ms(span.duration)}"]
        return f" (actual: {', '.join(parts)})"

    def emit(depth: int, text: str) -> None:
        lines.append("  " * depth + text)

    _render_statement(plan, 0, emit, suffix)
    return "\n".join(lines)


# The recursion lives in module functions, not in closures of ``render``:
# closures that call each other form a reference cycle, which would keep
# ``analysis`` (a result, and through it its session) alive until a
# cyclic collection.
def _render_statement(sub: logical_plan.StatementPlan, depth: int,
                      emit: Any, suffix: Any) -> None:
    for cte in sub.ctes:
        emit(depth, f"CTE {cte.name}{suffix(cte)}:")
        _render_statement(cte.plan, depth + 1, emit, suffix)
    _render_node(sub.root, depth, emit, suffix)


def _render_node(node: Any, depth: int, emit: Any, suffix: Any) -> None:
    if isinstance(node, logical_plan.SubqueryNode):
        emit(depth, f"Subquery AS {node.alias}{suffix(node)}:")
        _render_statement(node.plan, depth + 1, emit, suffix)
        return
    emit(depth, _label(node) + suffix(node))
    if isinstance(node, logical_plan.AggregateNode) \
            and node.having is not None:
        depth += 1
        emit(depth, f"Having ({_expr(node.having)})")
    for child in node.inputs:
        _render_node(child, depth + 1, emit, suffix)


def _label(node: Any) -> str:
    """One plan node's EXPLAIN line."""
    if isinstance(node, logical_plan.LimitNode):
        return f"Limit ({node.count})"
    if isinstance(node, logical_plan.SortNode):
        keys = ", ".join(_expr(s.expr) + (" DESC" if s.descending else "")
                         for s in node.order_by)
        return f"Sort ({keys})"
    if isinstance(node, logical_plan.DistinctNode):
        return "Distinct"
    if isinstance(node, logical_plan.ProjectNode):
        projections = ", ".join(
            _expr(item.expr) + (f" AS {item.alias}" if item.alias else "")
            for item in node.items)
        return f"Project ({projections})"
    if isinstance(node, logical_plan.AggregateNode):
        keys = ", ".join(_expr(e) for e in node.group_by) or "()"
        return f"Aggregate (group by {keys})"
    if isinstance(node, logical_plan.WindowNode):
        calls = ", ".join(
            f"{w.func.name}(...) OVER "
            f"{w.window if isinstance(w.window, str) else '(...)'}"
            for w, _resolved in node.calls)
        suffix = ""
        if node.shared:
            groups = "; ".join("=".join(names) for names in node.shared)
            suffix = f" [shared sort: {groups}]"
        if node.rows is not None:
            suffix += f" [first {node.rows} rows]"
        return f"Window ({calls}){suffix}"
    if isinstance(node, logical_plan.FilterNode):
        marker = " [implied]" if node.implied else ""
        return f"Filter ({_expr(node.predicate)}){marker}"
    if isinstance(node, logical_plan.ValuesNode):
        return "Values (1 row)"
    if isinstance(node, logical_plan.ScanNode):
        alias = f" AS {node.alias}" if node.alias else ""
        cte = " (cte)" if node.source == "cte" else ""
        return f"Scan {node.table}{alias}{cte}"
    if isinstance(node, logical_plan.HashJoinNode):
        keys = ", ".join(f"{_expr(l)} = {_expr(r)}" for l, r in node.keys)
        residual = (f", residual: {_expr(node.residual)}"
                    if node.residual is not None else "")
        return f"HashJoin ({node.kind}, keys: {keys}{residual})"
    if isinstance(node, logical_plan.NestedLoopJoinNode):
        if node.condition is None:  # written so, or every conjunct sank
            return f"NestedLoopJoin ({node.kind})"
        return f"NestedLoopJoin ({node.kind}, on {_expr(node.condition)})"
    return f"<{type(node).__name__}>"


def _expr(node: ast.Expr) -> str:
    if isinstance(node, ast.Literal):
        if isinstance(node.value, str):
            return f"'{node.value}'"
        return str(node.value)
    if isinstance(node, ast.IntervalLiteral):
        return f"INTERVAL '{node.text}'"
    if isinstance(node, ast.ColumnRef):
        return node.display()
    if isinstance(node, ast.Star):
        return f"{node.table}.*" if node.table else "*"
    if isinstance(node, ast.BinaryOp):
        return f"({_expr(node.left)} {node.op} {_expr(node.right)})"
    if isinstance(node, ast.UnaryOp):
        return f"({node.op} {_expr(node.operand)})"
    if isinstance(node, ast.BetweenExpr):
        negate = "not " if node.negated else ""
        return (f"({_expr(node.expr)} {negate}between {_expr(node.low)} "
                f"and {_expr(node.high)})")
    if isinstance(node, ast.InExpr):
        items = ", ".join(_expr(i) for i in node.items)
        negate = "not " if node.negated else ""
        return f"({_expr(node.expr)} {negate}in ({items}))"
    if isinstance(node, ast.IsNullExpr):
        negate = "not " if node.negated else ""
        return f"({_expr(node.expr)} is {negate}null)"
    if isinstance(node, ast.LikeExpr):
        negate = "not " if node.negated else ""
        return f"({_expr(node.expr)} {negate}like {_expr(node.pattern)})"
    if isinstance(node, ast.CaseExpr):
        return "CASE ..."
    if isinstance(node, ast.CastExpr):
        return f"CAST({_expr(node.expr)} AS {node.type_name})"
    if isinstance(node, ast.FuncCall):
        args = ", ".join(_expr(a) for a in node.args)
        if node.star:
            args = "*"
        if node.distinct:
            args = f"DISTINCT {args}"
        return f"{node.name}({args})"
    if isinstance(node, ast.WindowFunc):
        over = node.window if isinstance(node.window, str) else "(...)"
        return f"{_expr(node.func)} OVER {over}"
    if isinstance(node, ast.ScalarSubquery):
        return "(correlated subquery)"
    if isinstance(node, ast.InSubquery):
        negate = "not " if node.negated else ""
        return f"({_expr(node.expr)} {negate}in (subquery))"
    if isinstance(node, ast.ExistsExpr):
        return "EXISTS (...)"
    if isinstance(node, ast.Parameter):
        return node.display()
    return f"<{type(node).__name__}>"
