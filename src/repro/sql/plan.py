"""The logical plan: the one tree that is planned, executed and
explained.

:func:`plan_statement` turns a parsed statement into a tree of
operator nodes — scans, joins, ``Filter``, ``Aggregate``, ``Window``,
``Project``, ``Distinct``, ``Sort``, ``Limit``, with CTE and
derived-table plans nested inside — and that tree is the single
derivation of a query's shape: the executor walks it
(:func:`repro.sql.executor.run`), EXPLAIN renders it
(:func:`repro.sql.explain.render`) and EXPLAIN ANALYZE annotates each
node from the span the executor opened for it. Every nested statement
(CTE, derived table, scalar / IN / EXISTS subquery) is planned once,
with its parent; a correlated body re-*runs* per outer row but is never
re-planned. The module holds:

* **scope analysis** — :func:`from_scope` / :func:`output_names`
  compute alias-aware :class:`~repro.sql.catalog.Scope` bindings for
  any table expression *without executing it*, with the resolution
  semantics (lowercasing, ambiguity) the executor applies at runtime;
* **join classification** — :func:`classify_join` splits an ``ON``
  condition into equi-join key pairs (side-classified against the two
  scopes) plus a residual predicate, and picks the ``hash`` strategy
  whenever at least one key pair exists for an inner/left join.  The
  planner is its only caller;
* **the plan tree** — the ``*Node`` classes and :func:`plan_statement`.
  Planned without a catalog (``catalog=None``) the tree is a purely
  syntactic rendering aid: no scopes, every join a nested loop, not
  executable;
* **predicate pushdown** — while it builds a FROM clause's joins the
  planner sinks each WHERE / ON conjunct that reads a single join
  input to a ``Filter`` directly above the lowest subtree covering it
  (:func:`_plan_from` states the legality rules);
* **named-window dedup** — :func:`shared_window_groups` reports which
  named ``WINDOW`` clauses share a PARTITION BY / ORDER BY spec.  The
  window operator already shares one sort (one structure-cache
  ``order`` entry) between equal specs; the planner makes that sharing
  decidable and observable before execution;
* **subquery correlation checks** — :func:`check_in_subquery` rejects
  correlated ``IN (SELECT ...)`` subqueries at plan time with a clear
  typed error instead of a deep runtime resolution failure.

The module imports nothing from the executor, so the dependency points
one way: AST → plan → executor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SqlAnalysisError
from repro.sql import ast
from repro.sql.aggregates import is_aggregate_name
from repro.sql.catalog import Catalog, Scope

__all__ = [
    "JoinPlan", "PlanNode", "ScanNode", "ValuesNode", "SubqueryNode",
    "HashJoinNode", "NestedLoopJoinNode", "FilterNode", "AggregateNode",
    "WindowNode", "ProjectNode", "DistinctNode", "SortNode", "LimitNode",
    "CTENode", "StatementPlan", "from_scope", "output_names",
    "split_conjuncts", "classify_join", "plan_statement",
    "shared_window_groups", "check_in_subquery",
]


# ----------------------------------------------------------------------
# scope analysis
# ----------------------------------------------------------------------
def from_scope(from_: Optional[ast.TableExpr], catalog: Catalog,
               ctes: Mapping[str, Sequence[str]]) -> Scope:
    """The (qualifier, column) bindings a FROM clause exposes.

    ``ctes`` maps lowercased CTE names to their output column names.
    Mirrors the executor's scan operators: CTE names shadow catalog
    tables, the alias (or table name) becomes the qualifier, derived
    tables expose their select list under the alias."""
    if from_ is None:
        return Scope([(None, "__dual")])
    if isinstance(from_, ast.NamedTable):
        qualifier = (from_.alias or from_.name).lower()
        key = from_.name.lower()
        if key in ctes:
            return Scope.for_columns(list(ctes[key]), qualifier)
        return Scope.for_table(catalog.lookup(from_.name), qualifier)
    if isinstance(from_, ast.DerivedTable):
        names = output_names(from_.select, catalog, ctes)
        return Scope.for_columns(names, from_.alias.lower())
    if isinstance(from_, ast.Join):
        left = from_scope(from_.left, catalog, ctes)
        right = from_scope(from_.right, catalog, ctes)
        return left.concat(right)
    raise SqlAnalysisError(f"unsupported FROM item {type(from_).__name__}")


def output_names(stmt: ast.SelectStmt, catalog: Catalog,
                 ctes: Mapping[str, Sequence[str]]) -> List[str]:
    """The output column names of a statement, stars expanded."""
    local_ctes = dict(ctes)
    for name, sub in stmt.ctes:
        local_ctes[name.lower()] = output_names(sub, catalog, local_ctes)
    source: Optional[Scope] = None
    out: List[str] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            if source is None:
                source = from_scope(stmt.from_, catalog, local_ctes)
            out.extend(source.bindings[i][1]
                       for i in _star_positions(item.expr, source))
            continue
        out.append((item.alias or _derive_name(item.expr)).lower())
    return out


def _star_positions(star: ast.Star, scope: Scope) -> List[int]:
    """Which input columns ``*`` / ``t.*`` selects (hidden ``__``
    columns never surface)."""
    qualifier = star.table.lower() if star.table is not None else None
    return [i for i, (qual, col) in enumerate(scope.bindings)
            if not col.startswith("__")
            and (qualifier is None or qual == qualifier)]


def _derive_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name.lower()
    if isinstance(expr, ast.WindowFunc):
        return expr.func.name.lower()
    return "col"


def derived_tables(stmt: ast.SelectStmt) -> List[ast.SelectStmt]:
    """The bodies of the derived tables in a statement's FROM clause."""
    if isinstance(stmt.from_, (ast.Join, ast.DerivedTable)):
        return ast.statements(stmt.from_)
    return []


# ----------------------------------------------------------------------
# join classification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinPlan:
    """One join's physical decision: strategy, keys, residual.

    ``keys`` pairs are oriented ``(left_expr, right_expr)`` — each
    left expression resolves entirely against the left input's scope
    and vice versa.  ``residual`` is the AND of every conjunct that is
    not a usable equi-key (evaluated once over the key-matched row
    pairs, preserving the nested-loop output order and NULL semantics
    exactly)."""

    kind: str       # inner | left | cross
    strategy: str   # hash | nested_loop | cross
    keys: Tuple[Tuple[ast.Expr, ast.Expr], ...] = ()
    residual: Optional[ast.Expr] = None


def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten a predicate's top-level AND chain."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _split_disjuncts(expr: ast.Expr) -> List[ast.Expr]:
    """Flatten a predicate's top-level OR chain."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "or":
        return _split_disjuncts(expr.left) + _split_disjuncts(expr.right)
    return [expr]


def _chain(op: str, terms: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    result: Optional[ast.Expr] = None
    for term in terms:
        result = term if result is None else ast.BinaryOp(op, result, term)
    return result


def _and_join(conjuncts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    return _chain("and", conjuncts)


#: An ``IN (SELECT ...)`` is not among them: its body cannot be
#: correlated (:func:`check_in_subquery`), so it reads only what its
#: left-hand expression reads.
_COMPLEX_NODES = (ast.ScalarSubquery, ast.ExistsExpr, ast.WindowFunc,
                  ast.Parameter)


def _add_sides(node: ast.Expr, left: Scope, right: Scope,
               sides: set) -> bool:
    """Add to ``sides`` the inputs ``node`` reads; False (and stop) at a
    subquery, window, parameter or outer/unknown reference."""
    if isinstance(node, _COMPLEX_NODES):
        return False
    if isinstance(node, ast.ColumnRef):
        in_left = left.resolves(node.name, node.table)
        in_right = right.resolves(node.name, node.table)
        if in_left:
            sides.add("left")
        if in_right:
            sides.add("right")
        return in_left or in_right
    return all(_add_sides(child, left, right, sides)
               for child in ast.children(node))


def _side_of(expr: ast.Expr, left: Scope, right: Scope) -> str:
    """Which input an expression reads: 'left' | 'right' | 'const' |
    'both' | 'other' (unresolvable / subquery / parameter)."""
    sides: set = set()
    if not _add_sides(expr, left, right, sides):
        return "other"
    if sides == {"left"}:
        return "left"
    if sides == {"right"}:
        return "right"
    if not sides:
        return "const"
    return "both"


def classify_join(join: ast.Join, left: Scope, right: Scope) -> JoinPlan:
    """Split the ON condition into equi-keys and residual; pick a
    strategy.  ``hash`` requires at least one key pair and an
    inner/left join; everything else stays on the nested loop (cross
    joins keep their dedicated expansion)."""
    if join.condition is None:
        return JoinPlan(kind=join.kind, strategy="cross")
    keys: List[Tuple[ast.Expr, ast.Expr]] = []
    residual: List[ast.Expr] = []
    for conjunct in split_conjuncts(join.condition):
        pair = None
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            side_l = _side_of(conjunct.left, left, right)
            side_r = _side_of(conjunct.right, left, right)
            if (side_l, side_r) == ("left", "right"):
                pair = (conjunct.left, conjunct.right)
            elif (side_l, side_r) == ("right", "left"):
                pair = (conjunct.right, conjunct.left)
        if pair is not None:
            keys.append(pair)
        else:
            residual.append(conjunct)
    if keys and join.kind in ("inner", "left"):
        return JoinPlan(kind=join.kind, strategy="hash",
                        keys=tuple(keys), residual=_and_join(residual))
    return JoinPlan(kind=join.kind, strategy="nested_loop",
                    residual=join.condition)


# ----------------------------------------------------------------------
# OR factoring and implied predicates
# ----------------------------------------------------------------------
def _factored(conjunct: ast.Expr) -> List[ast.Expr]:
    """``conjunct`` as conjuncts with the OR's common part pulled out:
    ``(a AND x) OR (a AND y)`` is ``a``, ``x OR y``, and ``a OR (a AND
    x)`` is ``a``. Both are laws of three-valued logic too, so the rows
    a filter keeps do not change."""
    disjuncts = _split_disjuncts(conjunct)
    if len(disjuncts) < 2:
        return [conjunct]
    terms = [[(ast.shape(c), c) for c in split_conjuncts(d)]
             for d in disjuncts]
    common_keys = set.intersection(*({key for key, _ in t} for t in terms))
    if not common_keys:
        return [conjunct]
    common = list({key: c for key, c in terms[0]
                   if key in common_keys}.values())
    rests = []
    for t in terms:
        rest = [c for key, c in t if key not in common_keys]
        if not rest:  # a disjunct that is the common part absorbs the rest
            return common
        rests.append(_and_join(rest))
    return common + [_chain("or", rests)]


def _implied(conjunct: ast.Expr, side: str, left: Scope,
             right: Scope) -> Optional[ast.Expr]:
    """A predicate over ``side`` alone that every row ``conjunct``
    keeps satisfies: the OR, over its disjuncts, of each disjunct's
    conjuncts that read only ``side`` — or None when some disjunct has
    none."""
    parts = []
    for disjunct in _split_disjuncts(conjunct):
        own = [c for c in split_conjuncts(disjunct)
               if _side_of(c, left, right) == side]
        if not own:
            return None
        parts.append(_and_join(own))
    return _chain("or", parts)


def _route(conjuncts: Sequence[ast.Expr], sinks: Tuple[str, ...],
           left: Scope, right: Scope, sunk: Dict[str, List[ast.Expr]],
           stay: List[ast.Expr],
           implied: Dict[str, List[ast.Expr]]) -> None:
    """Factor each conjunct's OR, then sink what reads one of ``sinks``
    into ``sunk``. What reads both sides stays in ``stay``, and adds to
    ``implied`` its implied predicate on each side in ``sinks``."""
    for conjunct in conjuncts:
        if _side_of(conjunct, left, right) == "other":
            stay.append(conjunct)  # subqueries, parameters, outer refs
            continue
        for part in _factored(conjunct):
            side = _side_of(part, left, right)
            if side in sinks:
                sunk[side].append(part)
                continue
            stay.append(part)
            if side == "both":
                for target in sinks:
                    derived = _implied(part, target, left, right)
                    if derived is not None:
                        implied[target].append(derived)


# ----------------------------------------------------------------------
# the plan tree
# ----------------------------------------------------------------------
class PlanNode:
    """One operator of the plan tree.

    ``span`` names the trace span the executor's driver opens around
    the node (EXPLAIN ANALYZE reads the node's actuals from it),
    ``fault_site`` the chaos hook the driver fires before running it,
    and ``keeps_reservation`` marks a node whose governor reservations
    outlive it (released when the enclosing statement finishes)."""

    span = ""
    fault_site: Optional[str] = None
    keeps_reservation = False
    inputs: Tuple["PlanNode", ...] = ()

    def span_attrs(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True)
class ScanNode(PlanNode):
    table: str                    # as written
    alias: Optional[str] = None
    source: str = "table"         # table | cte
    span = "scan"

    @property
    def qualifier(self) -> str:
        return (self.alias or self.table).lower()

    def span_attrs(self) -> Dict[str, Any]:
        return {"table": self.table.lower()}


@dataclass(frozen=True)
class ValuesNode(PlanNode):
    """The single pseudo-row a FROM-less SELECT evaluates over."""

    span = "values"


@dataclass(frozen=True)
class SubqueryNode(PlanNode):
    """A derived table: its own statement plan under an alias."""

    alias: str
    plan: "StatementPlan"
    span = "subquery"


@dataclass(frozen=True)
class _JoinNode(PlanNode):
    kind: str                     # inner | left | cross
    left: PlanNode
    right: PlanNode
    span = "join"

    @property
    def inputs(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class HashJoinNode(_JoinNode):
    keys: Tuple[Tuple[ast.Expr, ast.Expr], ...]
    residual: Optional[ast.Expr]
    fault_site = "join.build"


@dataclass(frozen=True)
class NestedLoopJoinNode(_JoinNode):
    condition: Optional[ast.Expr]  # None: cross product


@dataclass(frozen=True)
class _UnaryNode(PlanNode):
    input: PlanNode

    @property
    def inputs(self) -> Tuple[PlanNode, ...]:
        return (self.input,)


@dataclass(frozen=True)
class FilterNode(_UnaryNode):
    """``implied`` marks a predicate the planner derived from an OR
    that reads both sides of a join (see :func:`_plan_from`); the OR
    itself still runs above that join."""

    predicate: ast.Expr
    implied: bool = False
    span = "filter"


@dataclass(frozen=True)
class AggregateNode(_UnaryNode):
    """Output columns: ``__group_i`` per key, ``__agg_i`` per aggregate;
    ``having_filter`` is ``having`` rewritten over them."""

    group_by: Tuple[ast.Expr, ...]
    aggregates: Tuple[ast.FuncCall, ...]
    having: Optional[ast.Expr]          # as written
    having_filter: Optional[ast.Expr]
    span = "aggregate"


@dataclass(frozen=True)
class WindowNode(_UnaryNode):
    """Appends one hidden ``__wout_i`` column per distinct call.

    ``rows`` is the row demand: when set, only the first ``rows`` input
    rows are answered and passed on (see :func:`plan_statement`)."""

    calls: Tuple[Tuple[ast.WindowFunc, ast.WindowDef], ...]
    shared: Tuple[Tuple[str, ...], ...]  # named windows sharing a sort
    rows: Optional[int] = None
    span = "window"


@dataclass(frozen=True)
class ProjectNode(_UnaryNode):
    """``columns`` holds, per output column, an input position (an
    expanded ``*``) or an expression over the input; ``None`` when
    planned without a catalog."""

    items: Tuple[ast.SelectItem, ...]   # as written
    names: Optional[Tuple[str, ...]]
    columns: Optional[Tuple[Union[int, ast.Expr], ...]]
    span = "project"


@dataclass(frozen=True)
class DistinctNode(_UnaryNode):
    span = "distinct"


@dataclass(frozen=True)
class SortNode(_UnaryNode):
    order_by: Tuple[ast.SortItem, ...]  # as written
    keys: Tuple[ast.SortItem, ...]      # over the aggregate/window output
    span = "sort"


@dataclass(frozen=True)
class LimitNode(_UnaryNode):
    count: int
    span = "limit"


@dataclass(frozen=True)
class CTENode(PlanNode):
    name: str                     # as written
    plan: "StatementPlan"
    span = "cte.materialize"
    fault_site = "cte.materialize"
    keeps_reservation = True

    def span_attrs(self) -> Dict[str, Any]:
        return {"cte": self.name.lower()}


@dataclass(frozen=True)
class StatementPlan:
    """One statement: its CTEs, materialized in order, then ``root``."""

    ctes: Tuple[CTENode, ...]
    root: PlanNode

    @property
    def project(self) -> ProjectNode:
        node = self.root
        while not isinstance(node, ProjectNode):
            node = node.input
        return node

    @property
    def names(self) -> Optional[Tuple[str, ...]]:
        """Output column names as written (``None`` without a catalog)."""
        return self.project.names


def _is_aggregate(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.FuncCall) and is_aggregate_name(expr.name)


def _is_window(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.WindowFunc)


def _find(exprs: Sequence[ast.Expr],
          wanted: Callable[[ast.Expr], bool]) -> List[ast.Expr]:
    """The distinct outermost sub-expressions satisfying ``wanted``, in
    first-appearance order, told apart by :class:`ast.Exact` (``sum(x + 1)``
    and ``sum(x + 1.0)`` are two). Window functions are not looked into
    (their arguments belong to the window operator), subquery bodies are
    separate statements."""
    out: List[ast.Expr] = []
    seen: set = set()
    for expr in exprs:
        _find_in(expr, wanted, seen, out)
    return out


def _find_in(node: ast.Expr, wanted: Callable[[ast.Expr], bool],
             seen: set, out: List[ast.Expr]) -> None:
    """:func:`_find` below one expression, appending to ``out`` what
    ``seen`` does not hold yet."""
    if wanted(node):
        key = ast.Exact(node)
        if key not in seen:
            seen.add(key)
            out.append(node)
    elif not isinstance(node, ast.WindowFunc):
        for child in ast.children(node):
            _find_in(child, wanted, seen, out)


def _substitute(expr: ast.Expr,
                mapping: Mapping[ast.Exact, ast.Expr]) -> ast.Expr:
    """``expr`` with every sub-expression that is (by :class:`ast.Exact`)
    a key of ``mapping`` replaced by its value."""
    if not mapping:
        return expr
    replaced = mapping.get(ast.Exact(expr))
    if replaced is not None:
        return replaced
    return ast.map_children(expr, lambda e: _substitute(e, mapping))


def _spellings(key: ast.Expr, scope: Optional[Scope]) -> List[ast.Expr]:
    """``key`` and, for a column ``scope`` resolves unambiguously both
    bare and qualified, its other spelling: ``GROUP BY x`` also groups
    ``t.x``, and ``GROUP BY t.x`` also ``x``."""
    out = [key]
    if isinstance(key, ast.ColumnRef) and scope is not None \
            and scope.matches(key.name, key.table) == 1:
        qualifier = next(qual for qual, col in scope.bindings
                         if col == key.name
                         and key.table in (None, qual))
        if scope.matches(key.name, None) == 1 and qualifier is not None:
            other = ast.ColumnRef(key.name,
                                  None if key.table else qualifier)
            out.append(other)
    return out


def _reads_output(key: ast.Expr, selected: Set[str]) -> bool:
    """Whether an ORDER BY key is a SELECT position or a bare name among
    the ``selected`` output names, which ``executor._sort`` reads off
    the SELECT list instead of evaluating against the input."""
    if isinstance(key, ast.Literal):
        return isinstance(key.value, int)
    return (isinstance(key, ast.ColumnRef) and key.table is None
            and key.name.lower() in selected)


def _check_grouped(exprs: Sequence[ast.Expr],
                   mapping: Mapping[ast.Exact, ast.Expr],
                   scope: Scope) -> None:
    """Reject a grouped statement's SELECT item, HAVING clause or ORDER
    BY key that reads an input column outside every GROUP BY key and
    aggregate (the ``mapping`` keys), naming the outermost such
    sub-expression: ``y`` in ``SELECT y, count(*) ... GROUP BY x``,
    ``x + 1`` in ``SELECT x + 1 ... GROUP BY x + 1.0``. Names ``scope``
    (the grouping's input) does not resolve are left to evaluation: an
    outer row's column, or an unknown one."""
    for expr in exprs:
        if isinstance(expr, ast.Star):
            continue
        found = _ungrouped(expr, mapping, scope)[1]
        if found is not None:
            from repro.sql.explain import _expr
            text = _expr(found)
            if isinstance(found, ast.BinaryOp):
                text = text[1:-1]
            raise SqlAnalysisError(
                f"{text!r} must appear in GROUP BY or be used in an "
                f"aggregate function")


def _ungrouped(node: ast.Expr, mapping: Mapping[ast.Exact, ast.Expr],
               scope: Scope) -> Tuple[bool, Optional[ast.Expr]]:
    """For :func:`_check_grouped`: whether ``node`` holds a key or an
    aggregate, and its outermost offending sub-expression or None."""
    if ast.Exact(node) in mapping or isinstance(node, ast.WindowFunc):
        return True, None
    if isinstance(node, ast.ColumnRef):
        scope.check(node.name, node.table)
        return False, (node if scope.resolves(node.name, node.table)
                       else None)
    held, found = False, None
    for child in ast.children(node):
        child_held, child_found = _ungrouped(child, mapping, scope)
        held |= child_held
        found = found or child_found
    return held, (found if held or found is None else node)


def plan_statement(stmt: ast.SelectStmt, catalog: Optional[Catalog],
                   ctes: Optional[Mapping[str, Sequence[str]]] = None
                   ) -> StatementPlan:
    """Build the plan for one statement, nested statements included.

    ``ctes`` maps the lowercased names of the enclosing statements'
    CTEs to their output columns. With ``catalog=None`` the result is
    the syntactic rendering described in the module docstring.

    **Row demand.** A window's output is row-aligned with its input,
    and ``Project`` keeps that alignment, so when neither DISTINCT nor
    ORDER BY sits between the ``Limit`` and the ``Window`` the limit
    keeps exactly input positions ``[0, min(k, n))``. The planner then
    sets ``WindowNode.rows = k``: the window operator answers those
    rows only, and ``Project`` evaluates only them. The ``Limit`` stays
    on top, unchanged."""
    ctes = dict(ctes or {})
    cte_nodes: List[CTENode] = []
    for name, sub in stmt.ctes:
        cte_nodes.append(CTENode(name, plan_statement(sub, catalog, ctes)))
        ctes[name.lower()] = cte_nodes[-1].plan.names or ()

    def planned(expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        return None if expr is None else _plan_expr(expr, catalog, ctes)

    node, scope = _plan_from(stmt.from_, catalog, ctes,
                             split_conjuncts(planned(stmt.where)))

    exprs = [item.expr for item in stmt.items]
    order = [s.expr for s in stmt.order_by]
    # Keyed by ast.Exact: literals that differ only in type stay apart.
    mapping: Dict[ast.Exact, ast.Expr] = {}
    having = [] if stmt.having is None else [stmt.having]
    calls = _find(exprs + order, _is_window)
    if stmt.group_by or _find(exprs + having, _is_aggregate):
        if calls and _find(exprs, _is_window):
            raise SqlAnalysisError(
                "window functions combined with GROUP BY are not supported")
        aggregates = _find(exprs + having + order, _is_aggregate)
        for i, key in enumerate(stmt.group_by):
            for spelling in _spellings(key, scope):
                mapping.setdefault(ast.Exact(spelling),
                                   ast.ColumnRef(f"__group_{i}"))
        mapping.update((ast.Exact(agg), ast.ColumnRef(f"__agg_{i}"))
                       for i, agg in enumerate(aggregates))
        if scope is not None:
            selected = {(item.alias or _derive_name(item.expr)).lower()
                        for item in stmt.items
                        if not isinstance(item.expr, ast.Star)}
            _check_grouped(exprs + having + [
                key for key in order if not _reads_output(key, selected)],
                mapping, scope)
        node = AggregateNode(
            node, tuple(planned(e) for e in stmt.group_by),
            tuple(planned(a) for a in aggregates), planned(stmt.having),
            planned(stmt.having and _substitute(stmt.having, mapping)))
        scope = Scope([])  # only hidden columns: ``*`` selects nothing
    elif calls:
        named = {name.lower(): window for name, window in stmt.windows}
        resolved = []
        for i, call in enumerate(calls):
            window = call.window
            if isinstance(window, str):
                if window.lower() not in named:
                    raise SqlAnalysisError(
                        f"unknown window name {window!r}")
                window = named[window.lower()]
            mapping[ast.Exact(call)] = ast.ColumnRef(f"__wout_{i}")
            resolved.append((replace(call, func=planned(call.func)),
                             ast.map_children(window, planned)))
        demand = None if stmt.distinct or stmt.order_by else stmt.limit
        node = WindowNode(node, tuple(resolved), tuple(
            tuple(group) for group in shared_window_groups(stmt)), demand)

    names = columns = None
    if scope is not None:
        names, columns = [], []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                positions = _star_positions(item.expr, scope)
                columns.extend(positions)
                names.extend(scope.bindings[i][1] for i in positions)
            else:
                columns.append(planned(_substitute(item.expr, mapping)))
                names.append(item.alias or _derive_name(item.expr))
        names, columns = tuple(names), tuple(columns)
    node = ProjectNode(node, stmt.items, names, columns)
    if stmt.distinct:
        node = DistinctNode(node)
    if stmt.order_by:
        node = SortNode(node, stmt.order_by, tuple(
            replace(s, expr=planned(_substitute(s.expr, mapping)))
            for s in stmt.order_by))
    if stmt.limit is not None:
        node = LimitNode(node, stmt.limit)
    return StatementPlan(tuple(cte_nodes), node)


def _plan_from(from_: Optional[ast.TableExpr], catalog: Optional[Catalog],
               ctes: Mapping[str, Sequence[str]],
               filters: Sequence[ast.Expr] = (),
               implied: Sequence[ast.Expr] = ()
               ) -> Tuple[PlanNode, Optional[Scope]]:
    """A FROM clause's operator tree and, given a catalog, its scope.

    ``filters`` are predicates over this clause's output (WHERE
    conjuncts, or ON conjuncts an enclosing join handed down), already
    planned. Each sinks to a ``FilterNode`` directly above the lowest
    subtree that covers it — filtering keeps relative row order, so
    everything above sees the same rows in the same order, only
    sooner:

    * a conjunct reading one input of an INNER/CROSS join sinks into
      that input, from WHERE and from the join's own ON alike;
    * at a LEFT JOIN a WHERE conjunct sinks only into the preserved
      (left) side — on the right it would have to see the NULL-extended
      rows — and an ON conjunct only into the null-supplying (right)
      side — on the left it decides matching, not membership;
    * a conjunct reading both sides, neither, an outer row, or holding
      a scalar/EXISTS subquery stays above the join it arrived at.

    Before it is sunk, a conjunct's OR is factored (:func:`_factored`),
    and one that reads both sides also yields, per side it may sink
    into, its implied predicate on that side (:func:`_implied`). An
    implied predicate only rejects rows the conjunct, which stays,
    rejects too; ``implied`` carries them down like ``filters``, into
    ``FilterNode(implied=True)``.

    Without a catalog there are no scopes to decide by: every filter
    stays on top."""
    if isinstance(from_, ast.Join) and catalog is not None:
        left_scope = from_scope(from_.left, catalog, ctes)
        right_scope = from_scope(from_.right, catalog, ctes)
        condition = from_.condition and _plan_expr(from_.condition,
                                                   catalog, ctes)
        outer = from_.kind == "left"
        where_sinks = ("left",) if outer else ("left", "right")
        on_sinks = ("right",) if outer else ("left", "right")
        sunk: Dict[str, List[ast.Expr]] = {"left": [], "right": []}
        sunk_implied: Dict[str, List[ast.Expr]] = {"left": [], "right": []}
        above: List[ast.Expr] = []
        above_implied: List[ast.Expr] = []
        on: List[ast.Expr] = []
        scopes = (left_scope, right_scope)
        _route(filters, where_sinks, *scopes, sunk, above, sunk_implied)
        _route(implied, where_sinks, *scopes, sunk_implied, above_implied,
               sunk_implied)
        _route(split_conjuncts(condition), on_sinks, *scopes, sunk, on,
               sunk_implied)
        left, _ = _plan_from(from_.left, catalog, ctes, sunk["left"],
                             sunk_implied["left"])
        right, _ = _plan_from(from_.right, catalog, ctes, sunk["right"],
                              sunk_implied["right"])
        jplan = classify_join(replace(from_, condition=_and_join(on)),
                              left_scope, right_scope)
        if jplan.strategy == "hash":
            node: PlanNode = HashJoinNode(from_.kind, left, right,
                                          jplan.keys, jplan.residual)
        else:
            node = NestedLoopJoinNode(from_.kind, left, right,
                                      jplan.residual)
        scope: Optional[Scope] = left_scope.concat(right_scope)
        filters, implied = above, above_implied
    elif isinstance(from_, ast.Join):
        left, _ = _plan_from(from_.left, catalog, ctes)
        right, _ = _plan_from(from_.right, catalog, ctes)
        condition = from_.condition and _plan_expr(from_.condition,
                                                   catalog, ctes)
        node, scope = NestedLoopJoinNode(from_.kind, left, right,
                                         condition), None
    elif from_ is None:
        node, scope = ValuesNode(), from_scope(None, catalog, ctes)
    elif isinstance(from_, ast.NamedTable):
        source = "cte" if from_.name.lower() in ctes else "table"
        node = ScanNode(from_.name, from_.alias, source)
        scope = None if catalog is None \
            else from_scope(from_, catalog, ctes)
    elif isinstance(from_, ast.DerivedTable):
        plan = plan_statement(from_.select, catalog, ctes)
        node = SubqueryNode(from_.alias, plan)
        scope = None if catalog is None \
            else Scope.for_columns(plan.names, from_.alias.lower())
    else:
        raise SqlAnalysisError(
            f"unsupported FROM item {type(from_).__name__}")
    if filters:
        node = FilterNode(node, _and_join(filters))
    if implied:
        node = FilterNode(node, _and_join(implied), implied=True)
    return node, scope


def _plan_expr(expr: ast.Expr, catalog: Optional[Catalog],
               ctes: Mapping[str, Sequence[str]]) -> ast.Expr:
    """``expr`` with every subquery body replaced by its plan."""
    if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery,
                         ast.ExistsExpr)):
        if isinstance(expr, ast.InSubquery) and catalog is not None:
            check_in_subquery(expr, catalog, ctes)
        expr = replace(expr,
                       select=plan_statement(expr.select, catalog, ctes))
    return ast.map_children(expr, lambda e: _plan_expr(e, catalog, ctes))


# ----------------------------------------------------------------------
# named-window dedup
# ----------------------------------------------------------------------
def shared_window_groups(stmt: ast.SelectStmt) -> List[List[str]]:
    """Named windows that share one sort: groups (size ≥ 2) of WINDOW
    clause names with equal PARTITION BY + ORDER BY specs.  Frames are
    ignored on purpose — the sort (the structure-cache ``order``
    entry) depends only on partition/order, so differently-framed
    windows over the same spec still share it."""
    groups: Dict[Tuple, List[str]] = {}
    for name, window in stmt.windows:
        key = (window.partition_by, window.order_by)
        groups.setdefault(key, []).append(name.lower())
    return [names for names in groups.values() if len(names) > 1]


# ----------------------------------------------------------------------
# subquery correlation checks
# ----------------------------------------------------------------------
def free_column_refs(stmt: ast.SelectStmt, catalog: Catalog,
                     ctes: Mapping[str, Sequence[str]]
                     ) -> List[ast.ColumnRef]:
    """Column references a statement cannot resolve from its own FROM
    scopes (including nested subqueries' scope chains) — i.e. the
    references that would have to correlate to an enclosing query."""
    out: List[ast.ColumnRef] = []
    _free_refs(stmt, catalog, dict(ctes), [], out)
    return out


def _free_refs(stmt: ast.SelectStmt, catalog: Catalog,
               ctes: Dict[str, Sequence[str]], enclosing: List[Scope],
               out: List[ast.ColumnRef]) -> None:
    local_ctes = dict(ctes)
    for name, sub in stmt.ctes:
        _free_refs(sub, catalog, local_ctes, enclosing, out)
        local_ctes[name.lower()] = output_names(sub, catalog, local_ctes)
    try:
        local = from_scope(stmt.from_, catalog, local_ctes)
    except SqlAnalysisError:
        # Unknown table: planning will raise the precise error; scope
        # analysis has nothing more to add.
        return
    chain = [local] + enclosing
    for expr in ast.children(stmt):
        _free_refs_in(expr, catalog, local_ctes, chain, out)
    for sub in derived_tables(stmt):
        _free_refs(sub, catalog, local_ctes, enclosing, out)


def _free_refs_in(node: ast.Expr, catalog: Catalog,
                  ctes: Dict[str, Sequence[str]], chain: List[Scope],
                  out: List[ast.ColumnRef]) -> None:
    """:func:`_free_refs` below one expression of a statement whose
    scopes, innermost first, are ``chain``."""
    if isinstance(node, ast.ColumnRef):
        if not any(scope.resolves(node.name, node.table)
                   for scope in chain):
            out.append(node)
        return
    for child in ast.children(node):
        _free_refs_in(child, catalog, ctes, chain, out)
    for sub in ast.statements(node):
        _free_refs(sub, catalog, ctes, chain, out)


def check_in_subquery(node: ast.InSubquery, catalog: Catalog,
                      ctes: Mapping[str, Sequence[str]]) -> None:
    """Reject correlated IN subqueries with a clear, typed error.

    ``expr IN (SELECT ...)`` executes the subquery once and probes a
    hash set; a correlated body would need per-row re-execution, which
    this engine deliberately does not do for IN (rewrite as a join or
    EXISTS)."""
    free = free_column_refs(node.select, catalog, ctes)
    if free:
        raise SqlAnalysisError(
            f"correlated IN subqueries are not supported: column "
            f"{free[0].display()!r} is not resolvable inside the "
            f"subquery; rewrite the query as a join or EXISTS")

