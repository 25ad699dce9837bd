"""The logical plan: tree shapes, the plan/EXPLAIN/executor identity,
per-node spans, plan-once subqueries, and the generic AST traversal."""

import dataclasses
import typing

import pytest

from repro.resilience.context import current_context
from repro.sql import (
    Catalog,
    QueryOptions,
    Session,
    ast,
    execute,
    executor,
    explain,
    parse,
    plan,
)
from repro.sql.explain import _expr, render
from repro.sql.expr import Context
from repro.table import DataType, Table
from repro.tpch import QUERIES, tpch_catalog


@pytest.fixture(scope="module")
def catalog():
    return tpch_catalog(0.001)


def _chain(node, *kinds):
    """Follow ``.input`` through the expected node kinds; returns the
    node under the last one."""
    for kind in kinds:
        assert isinstance(node, kind), (type(node).__name__, kind.__name__)
        node = node.input
    return node


def _left_deep_joins(node):
    """The hash joins down the left spine (sunk filters between them
    looked through) and the node under the last one."""
    joins = []
    while isinstance(node, (plan.HashJoinNode, plan.FilterNode)):
        if isinstance(node, plan.HashJoinNode):
            joins.append(node)
        node = node.inputs[0]
    return joins, node


def _filtered_scan(node):
    """(qualifier, sunk predicate text or None) of a join input."""
    if isinstance(node, plan.FilterNode):
        return node.input.qualifier, _expr(node.predicate)
    return node.qualifier, None


def _key_text(join):
    return [(left.display(), right.display()) for left, right in join.keys]


def _rendered_nodes(statement):
    """Every node EXPLAIN prints: CTE bodies, derived tables, the root."""
    for cte in statement.ctes:
        yield cte
        yield from _rendered_nodes(cte.plan)
    pending = [statement.root]
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, plan.SubqueryNode):
            yield from _rendered_nodes(node.plan)
        pending.extend(node.inputs)


class TestTreeShape:
    def test_q5_is_a_left_deep_hash_join_pipeline(self, catalog):
        statement = plan.plan_statement(parse(QUERIES["q5"]), catalog)
        assert statement.ctes == ()
        assert statement.names == ("n_name", "revenue")
        # No Filter is left above the joins: every WHERE conjunct sank.
        source = _chain(statement.root, plan.SortNode, plan.ProjectNode,
                        plan.AggregateNode)
        joins, leaf = _left_deep_joins(source)
        assert isinstance(leaf, plan.ScanNode) and leaf.table == "customer"
        assert [_filtered_scan(j.right) for j in joins] == [
            ("r", "(r.r_name = 'ASIA')"), ("n", None), ("s", None),
            ("l", None),
            ("o", "((o.o_orderdate >= 1994-01-01) and "
                  "(o.o_orderdate < 1995-01-01))")]
        # The conjunct reading c and s sits directly above the lowest
        # join that covers both.
        above_s = joins[1].left
        assert isinstance(above_s, plan.FilterNode)
        assert _expr(above_s.predicate) == "(c.c_nationkey = s.s_nationkey)"
        assert above_s.input is joins[2]
        assert all(j.kind == "inner" and j.residual is None for j in joins)
        # Key pairs are oriented (left input, right input) whichever
        # way round the ON clause wrote them.
        assert [_key_text(j) for j in joins] == [
            [("n.n_regionkey", "r.r_regionkey")],
            [("s.s_nationkey", "n.n_nationkey")],
            [("l.l_suppkey", "s.s_suppkey")],
            [("o.o_orderkey", "l.l_orderkey")],
            [("c.c_custkey", "o.o_custkey")]]

    def test_q8_plans_its_cte_once_and_scans_it(self, catalog):
        statement = plan.plan_statement(parse(QUERIES["q8"]), catalog)
        (cte,) = statement.ctes
        assert cte.name == "all_nations"
        assert cte.plan.names == ("o_year", "volume", "nation")
        source = _chain(cte.plan.root, plan.ProjectNode)
        joins, leaf = _left_deep_joins(source)
        assert len(joins) == 7
        assert _filtered_scan(joins[-1].left) == (
            "p", "(p.p_type = 'ECONOMY ANODIZED STEEL')")
        assert [_filtered_scan(j.right) for j in joins] == [
            ("n2", None), ("r", "(r.r_name = 'AMERICA')"), ("n1", None),
            ("c", None),
            ("o", "(o.o_orderdate between 1995-01-01 and 1996-12-31)"),
            ("s", None), ("l", None)]
        assert _key_text(joins[0]) == [("s.s_nationkey", "n2.n_nationkey")]
        scan = _chain(statement.root, plan.SortNode, plan.ProjectNode,
                      plan.AggregateNode)
        assert scan == plan.ScanNode("all_nations", None, "cte")

    def test_left_join_keeps_its_residual(self, catalog):
        # q13's own ON conjunct reads only orders, the null-supplying
        # side, and sinks there; one that reads both sides stays the
        # join's residual.
        for extra, residual in (
                ("", None),
                ("AND o.o_totalprice > c.c_acctbal",
                 "(o.o_totalprice > c.c_acctbal)")):
            sql = QUERIES["q13"].replace("GROUP BY c.c_custkey",
                                         extra + " GROUP BY c.c_custkey")
            statement = plan.plan_statement(parse(sql), catalog)
            (join,) = [n for n in _rendered_nodes(statement)
                       if isinstance(n, plan.HashJoinNode)]
            assert join.kind == "left"
            assert (join.residual and _expr(join.residual)) == residual
            assert _filtered_scan(join.right) == (
                "o", "(o.o_comment not like '%special%requests%')")

    def test_without_a_catalog_every_join_is_a_nested_loop(self):
        statement = plan.plan_statement(parse(QUERIES["q5"]), None)
        kinds = {type(n) for n in _rendered_nodes(statement)}
        assert plan.NestedLoopJoinNode in kinds
        assert plan.HashJoinNode not in kinds
        # ... and a ``*`` cannot be expanded, so the tree only renders.
        star = plan.plan_statement(
            parse("select * from a join b on a.x = b.x"), None)
        assert star.names is None and star.project.columns is None


class _AsWritten:
    """Each statement also runs as the plan read off the text — nested
    loops, WHERE on top — and must return the same rows in the same
    order."""

    @pytest.fixture(scope="class")
    def small(self):
        a = Table.from_dict({
            "x": (DataType.INT64, [1, 2, 2, 3, None]),
            "y": (DataType.INT64, [5, 0, 7, 1, 4])})
        b = Table.from_dict({
            "x": (DataType.INT64, [2, 2, 3, 4, None]),
            "z": (DataType.INT64, [0, 6, 1, 9, 3])})
        return Catalog({"a": a, "b": b})

    @staticmethod
    def _as_written(sql, catalog):
        stmt = parse(sql)
        planned = plan.plan_statement(stmt, catalog)
        source = plan.NestedLoopJoinNode(
            stmt.from_.kind, plan.ScanNode("a"), plan.ScanNode("b"),
            plan._plan_expr(stmt.from_.condition, catalog, {}))
        if stmt.where is not None:
            source = plan.FilterNode(
                source, plan._plan_expr(stmt.where, catalog, {}))
        root = dataclasses.replace(planned.root, input=source)
        ctx = Context(catalog, current_context())
        relation = executor.run_statement(plan.StatementPlan((), root), ctx)
        return executor._relation_to_table(relation, planned.names).to_rows()

    def _join_under_project(self, sql, catalog):
        rows = execute(sql, catalog).to_rows()
        assert rows == self._as_written(sql, catalog)
        root = plan.plan_statement(parse(sql), catalog).root
        assert isinstance(root, plan.ProjectNode)
        return root.input, rows


class TestPushdownLegality(_AsWritten):
    """Where a conjunct may sink, and that sinking changes no result."""

    def test_where_on_the_null_supplying_side_stays_above(self, small):
        # b.z > 0 must see the NULL-extended rows (and reject them).
        node, rows = self._join_under_project(
            "select a.x, b.z from a left join b on a.x = b.x "
            "where b.z > 0", small)
        assert isinstance(node, plan.FilterNode)
        assert _expr(node.predicate) == "(b.z > 0)"
        join = node.input
        assert isinstance(join, plan.HashJoinNode) and join.kind == "left"
        assert isinstance(join.right, plan.ScanNode)
        assert rows == [(2, 6), (2, 6), (3, 1)]

    def test_on_conjunct_on_the_preserved_side_stays_in_the_join(self,
                                                                 small):
        # a.y > 0 decides which a rows find a match, not which survive.
        join, rows = self._join_under_project(
            "select a.x, a.y, b.z from a left join b "
            "on a.x = b.x and a.y > 0", small)
        assert isinstance(join, plan.HashJoinNode) and join.kind == "left"
        assert isinstance(join.left, plan.ScanNode)
        assert _expr(join.residual) == "(a.y > 0)"
        assert rows == [(1, 5, None), (2, 0, None), (2, 7, 0), (2, 7, 6),
                        (3, 1, 1), (None, 4, None)]

    def test_the_mirror_cases_do_sink(self, small):
        join, _rows = self._join_under_project(
            "select a.x, b.z from a left join b on a.x = b.x and b.z > 0 "
            "where a.y > 0", small)
        assert isinstance(join, plan.HashJoinNode) and join.residual is None
        assert _filtered_scan(join.left) == ("a", "(a.y > 0)")
        assert _filtered_scan(join.right) == ("b", "(b.z > 0)")

    def test_inner_join_sinks_where_and_on_into_either_side(self, small):
        join, _rows = self._join_under_project(
            "select a.x, b.z from a join b on a.x = b.x and a.y > 0 "
            "where b.z in (select z from b where z > 0) and a.y < b.z",
            small)
        # The conjunct reading both sides stays above the join.
        assert _expr(join.predicate) == "(a.y < b.z)"
        join = join.input
        assert _filtered_scan(join.left) == ("a", "(a.y > 0)")
        qualifier, text = _filtered_scan(join.right)
        assert qualifier == "b" and text.startswith("(b.z in (")

    def test_subqueries_and_outer_references_stay_put(self, small):
        node, _rows = self._join_under_project(
            "select a.x from a join b on a.x = b.x "
            "where a.y > (select min(z) from b) "
            "and exists (select 1 from b b2 where b2.x = a.x)", small)
        assert isinstance(node, plan.FilterNode)
        assert isinstance(node.input, plan.HashJoinNode)
        assert isinstance(node.input.left, plan.ScanNode)

    def test_a_fully_sunk_left_join_keeps_its_unmatched_rows(self, small):
        # Every ON conjunct sank: what is left is a condition-less LEFT
        # JOIN, which still NULL-extends when the right side is empty.
        join, rows = self._join_under_project(
            "select a.x, b.z from a left join b on b.z > 100", small)
        assert isinstance(join, plan.NestedLoopJoinNode)
        assert join.condition is None
        assert rows == [(1, None), (2, None), (2, None), (3, None),
                        (None, None)]


def _implied_scan(node):
    """(qualifier, implied predicate text) of a join input whose top is
    an implied filter over a scan."""
    assert isinstance(node, plan.FilterNode) and node.implied
    assert isinstance(node.input, plan.ScanNode)
    return node.input.qualifier, _expr(node.predicate)


class TestOrFactoring(_AsWritten):
    """OR factoring and implied predicates change no result."""

    def test_common_conjuncts_become_the_join_key(self, small):
        join, rows = self._join_under_project(
            "select a.x, b.z from a join b "
            "on (a.x = b.x and a.y > 4) or (b.z < 1 and a.x = b.x)", small)
        assert isinstance(join, plan.HashJoinNode)
        assert _key_text(join) == [("a.x", "b.x")]
        assert _expr(join.residual) == "((a.y > 4) or (b.z < 1))"
        assert rows == [(2, 0), (2, 0), (2, 6)]

    def test_an_or_across_sides_implies_a_filter_on_each(self, small):
        node, rows = self._join_under_project(
            "select a.x, b.z from a join b on a.x = b.x "
            "where (a.y > 4 and b.z > 0) or (a.y < 1 and b.z < 1)", small)
        # the OR itself stays above the join
        assert _expr(node.predicate) == \
            "(((a.y > 4) and (b.z > 0)) or ((a.y < 1) and (b.z < 1)))"
        assert not node.implied
        join = node.input
        assert _implied_scan(join.left) == \
            ("a", "((a.y > 4) or (a.y < 1))")
        assert _implied_scan(join.right) == \
            ("b", "((b.z > 0) or (b.z < 1))")
        assert rows == [(2, 0), (2, 6)]

    def test_no_implied_filter_when_a_branch_has_no_own_conjunct(self,
                                                                 small):
        node, _rows = self._join_under_project(
            "select a.x from a join b on a.x = b.x "
            "where (a.y > 4 and b.z > 0) or a.y < b.z", small)
        join = node.input
        assert isinstance(join.left, plan.ScanNode)
        assert isinstance(join.right, plan.ScanNode)

    def test_absorption_sinks_the_common_part(self, small):
        join, rows = self._join_under_project(
            "select a.x, b.z from a join b on a.x = b.x "
            "where a.y > 4 or (a.y > 4 and b.z > 5)", small)
        assert isinstance(join, plan.HashJoinNode)
        assert _filtered_scan(join.left) == ("a", "(a.y > 4)")
        assert rows == [(2, 0), (2, 6)]

    def test_left_join_where_implies_only_the_preserved_side(self, small):
        # b.z IS NULL holds on the NULL-extended rows: filtering b first
        # would NULL-extend a row whose matches the OR rejects.
        node, rows = self._join_under_project(
            "select a.x, a.y, b.z from a left join b on a.x = b.x "
            "where (a.y > 4 and b.z is null) or (a.y < 2 and b.z > 0)",
            small)
        join = node.input
        assert _implied_scan(join.left) == \
            ("a", "((a.y > 4) or (a.y < 2))")
        assert isinstance(join.right, plan.ScanNode)
        assert rows == [(1, 5, None), (2, 0, 6), (3, 1, 1)]

    def test_left_join_on_implies_only_the_null_supplying_side(self,
                                                                small):
        join, rows = self._join_under_project(
            "select a.x, a.y, b.z from a left join b on a.x = b.x "
            "and ((a.y > 4 and b.z > 5) or (a.y < 2 and b.z < 2))", small)
        assert isinstance(join.left, plan.ScanNode)
        assert _implied_scan(join.right) == \
            ("b", "((b.z > 5) or (b.z < 2))")
        assert rows == [(1, 5, None), (2, 0, 0), (2, 7, 6), (3, 1, 1),
                        (None, 4, None)]

    def test_subqueries_are_not_factored(self, small):
        node, _rows = self._join_under_project(
            "select a.x from a join b on a.x = b.x "
            "where (a.y > 0 and b.z > (select min(z) from b)) "
            "or (a.y > 0 and b.z < 0)", small)
        assert isinstance(node, plan.FilterNode)
        assert " or " in _expr(node.predicate)
        assert isinstance(node.input.left, plan.ScanNode)

    def test_literals_are_compared_by_type(self):
        # 1, 1.0 and TRUE are equal as dataclasses but are different
        # conjuncts: nothing is common here.
        where = parse("select 1 from t where (x = 1 and y) or (x = 1.0 "
                      "and z) or (x = true and w)").where
        assert plan._factored(where) == [where]
        same = parse("select 1 from t where (x = 1 and y) or "
                     "(z and x = 1)").where
        assert [_expr(c) for c in plan._factored(same)] == \
            ["(x = 1)", "(y or z)"]


class TestOneTree:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_explain_is_the_rendered_plan(self, catalog, name):
        sql = QUERIES[name]
        assert explain(sql, catalog=catalog) == render(
            plan.plan_statement(parse(sql), catalog))

    def test_every_plan_node_owns_one_span_with_rows(self, catalog):
        with Session(catalog) as session:
            for name, sql in sorted(QUERIES.items()):
                result = session.execute(
                    sql, options=QueryOptions(trace=True))
                nodes = list(_rendered_nodes(result.plan))
                spans = [result.actuals.get(id(node)) for node in nodes]
                for node, span in zip(nodes, spans):
                    assert span is not None, (name, node)
                    assert span.name == node.span, (name, node)
                    assert "rows" in span.attrs, (name, node)
                assert len({id(span) for span in spans}) == len(nodes), name
                in_trace = {id(span) for span in result.trace.walk()}
                assert all(id(span) in in_trace for span in spans), name
                assert result.actuals[id(result.plan.project)] \
                    .attrs["rows"] >= len(result)

    def test_untraced_queries_record_no_actuals(self, catalog):
        with Session(catalog) as session:
            result = session.execute(
                QUERIES["q6"], options=QueryOptions(trace=False))
            assert result.plan is not None and result.actuals == {}


class TestPlanOnce:
    def test_correlated_subquery_body_is_planned_once(self, monkeypatch):
        table = Table.from_dict({"i": (DataType.INT64, list(range(25)))})
        calls = []
        original = plan.plan_statement

        def counting(stmt, catalog, ctes=None):
            calls.append(stmt)
            return original(stmt, catalog, ctes)

        monkeypatch.setattr(plan, "plan_statement", counting)
        out = execute(
            "select i, (select count(*) from t t2 where t2.i < t1.i) below "
            "from t t1 order by i", Catalog({"t": table}))
        assert out.column("below").to_list() == list(range(25))
        # The outer statement and the subquery body: not one per row.
        assert len(calls) == 2


# ----------------------------------------------------------------------
# ast.children / ast.map_children cover every expression node type
# ----------------------------------------------------------------------
def _build(tp, immediate):
    """A value of annotated type ``tp``; every expression placed where
    ``ast.children`` must find it is appended to ``immediate``."""
    if tp is typing.Any or tp is int:
        return 1
    if tp is str:
        return "x"
    if tp is bool:
        return False
    if tp is type(None):
        return None
    if tp is ast.SelectStmt:  # a nested statement: not a child
        return ast.SelectStmt((ast.SelectItem(ast.ColumnRef("inner")),))
    if tp is ast.Expr:
        immediate.append(ast.ColumnRef(f"c{len(immediate)}"))
        return immediate[-1]
    if isinstance(tp, type) and issubclass(tp, ast.Expr):
        immediate.append(_make(tp, []))
        return immediate[-1]
    if dataclasses.is_dataclass(tp):
        return _make(tp, immediate)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            return (_build(args[0], immediate), _build(args[0], immediate))
        return tuple(_build(arg, immediate) for arg in args)
    assert typing.get_origin(tp) is typing.Union, tp
    return _build(args[0], immediate)


def _make(cls, immediate):
    hints = typing.get_type_hints(cls, vars(ast))
    return cls(**{field.name: _build(hints[field.name], immediate)
                  for field in dataclasses.fields(cls)})


@pytest.mark.parametrize("cls", ast.Expr.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_traversal_reaches_every_expression_field(cls):
    immediate = []
    node = _make(cls, immediate)
    assert ast.children(node) == immediate
    assert ast.map_children(node, lambda e: e) is node

    def rename(expr):
        return ast.Literal(repr(expr))

    mapped = ast.map_children(node, rename)
    assert ast.children(mapped) == [rename(e) for e in immediate]
    assert (mapped == node) == (not immediate)


def test_statement_traversal_stops_at_nested_statements():
    stmt = parse("""
        with c as (select a from t where a > 1)
        select x, (select max(b) from u) from (select y from v) d
        join c on d.y = c.a where x in (select z from w)
        order by x""")
    top = ast.children(stmt)
    assert ast.ColumnRef("y", "d") in [
        e.left for e in top if isinstance(e, ast.BinaryOp)]
    assert len(ast.statements(stmt)) == 2          # derived table + CTE
    tables = {node.from_.name for node in ast.walk(stmt)
              if isinstance(node, ast.SelectStmt)
              and isinstance(node.from_, ast.NamedTable)}
    assert tables == {"t", "u", "v", "w"}
