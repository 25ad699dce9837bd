"""SQL parser: shapes of parsed statements, incl. the paper's queries."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse


class TestBasics:
    def test_minimal(self):
        stmt = parse("select 1")
        assert len(stmt.items) == 1
        assert stmt.items[0].expr == ast.Literal(1)

    def test_aliases(self):
        stmt = parse("select a as x, b y, c from t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.items[2].alias is None

    def test_star(self):
        stmt = parse("select *, t.* from t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr == ast.Star("t")

    def test_where_group_having_order_limit(self):
        stmt = parse("""
            select g, count(*) from t where x > 1
            group by g having count(*) > 2
            order by 2 desc nulls first limit 5
        """)
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending
        assert stmt.order_by[0].nulls_last is False
        assert stmt.limit == 5

    def test_distinct(self):
        assert parse("select distinct a from t").distinct

    def test_trailing_semicolon(self):
        parse("select 1;")

    def test_errors(self):
        with pytest.raises(SqlSyntaxError):
            parse("select")
        with pytest.raises(SqlSyntaxError):
            parse("select 1 from")
        with pytest.raises(SqlSyntaxError):
            parse("select 1 extra_tokens 2 3")
        with pytest.raises(SqlSyntaxError):
            parse("select 1 limit x")

    def test_errors_say_where(self):
        # WHER reads as t's alias, so x is the first token that cannot
        # continue the statement.
        with pytest.raises(SqlSyntaxError,
                           match="near 'x' at line 2, column 17$") as info:
            parse("SELECT a,\n  b FROM t WHER x = 1")
        assert info.value.position == 26
        with pytest.raises(SqlSyntaxError,
                           match="'#' at line 3, column 12$"):
            parse("SELECT a\n FROM t\n WHERE b = #")


class TestExpressions:
    def test_precedence(self):
        expr = parse("select 1 + 2 * 3").items[0].expr
        assert expr == ast.BinaryOp(
            "+", ast.Literal(1),
            ast.BinaryOp("*", ast.Literal(2), ast.Literal(3)))

    def test_comparison_chain_and_logic(self):
        expr = parse("select a < b and not c = d or e").items[0].expr
        assert isinstance(expr, ast.BinaryOp) and expr.op == "or"

    def test_between_and_in(self):
        expr = parse("select a between 1 and 2").items[0].expr
        assert isinstance(expr, ast.BetweenExpr)
        expr = parse("select a not in (1, 2)").items[0].expr
        assert isinstance(expr, ast.InExpr) and expr.negated

    def test_is_null(self):
        expr = parse("select a is not null").items[0].expr
        assert isinstance(expr, ast.IsNullExpr) and expr.negated

    def test_case(self):
        expr = parse("select case when a then 1 else 2 end").items[0].expr
        assert isinstance(expr, ast.CaseExpr)
        simple = parse("select case a when 1 then 'x' end").items[0].expr
        assert isinstance(simple.whens[0][0], ast.BinaryOp)

    def test_literals(self):
        stmt = parse("select null, true, false, date '2020-01-02', "
                     "interval '1 week'")
        values = [item.expr for item in stmt.items]
        assert values[0] == ast.Literal(None)
        assert values[1] == ast.Literal(True)
        assert isinstance(values[4], ast.IntervalLiteral)
        assert values[4].days == 7

    def test_qualified_refs(self):
        expr = parse("select t.x").items[0].expr
        assert expr == ast.ColumnRef("x", table="t")

    def test_scalar_subquery_and_exists(self):
        expr = parse("select (select 1)").items[0].expr
        assert isinstance(expr, ast.ScalarSubquery)
        expr = parse("select exists (select 1)").items[0].expr
        assert isinstance(expr, ast.ExistsExpr)


class TestFunctionCalls:
    def test_distinct_and_star(self):
        expr = parse("select count(distinct x)").items[0].expr
        assert expr.distinct
        expr = parse("select count(*)").items[0].expr
        assert expr.star

    def test_in_call_order_by(self):
        """The paper's extension syntax: rank(order by tps desc)."""
        expr = parse("select rank(order by tps desc)").items[0].expr
        assert expr.args == ()
        assert expr.order_by[0].descending

    def test_args_then_order_by(self):
        """percentile_disc(0.99, order by x) — Section 1."""
        expr = parse(
            "select percentile_disc(0.99, order by delay)").items[0].expr
        assert expr.args == (ast.Literal(0.99),)
        assert expr.order_by[0].expr == ast.ColumnRef("delay")

    def test_within_group(self):
        expr = parse("select percentile_disc(0.5) within group "
                     "(order by x)").items[0].expr
        assert expr.within_group[0].expr == ast.ColumnRef("x")

    def test_filter(self):
        expr = parse("select sum(a) filter (where a > 0)").items[0].expr
        assert expr.filter_where is not None

    def test_ignore_nulls_and_from_last(self):
        expr = parse(
            "select nth_value(x, 2) from last ignore nulls").items[0].expr
        assert expr.from_last and expr.ignore_nulls


class TestWindows:
    def test_inline_window(self):
        expr = parse("""
            select sum(v) over (partition by g order by o
              rows between 3 preceding and current row exclude ties)
        """).items[0].expr
        assert isinstance(expr, ast.WindowFunc)
        window = expr.window
        assert window.partition_by == (ast.ColumnRef("g"),)
        assert window.frame.mode == "rows"
        assert window.frame.exclusion == "ties"

    def test_named_window(self):
        stmt = parse("""
            select rank(order by tps desc) over w from t
            window w as (order by d range between unbounded preceding
                         and current row)
        """)
        expr = stmt.items[0].expr
        assert expr.window == "w"
        assert stmt.windows[0][0] == "w"
        assert stmt.windows[0][1].frame.mode == "range"

    def test_shorthand_frame(self):
        expr = parse("select sum(v) over (order by o rows 5 preceding)"
                     ).items[0].expr
        frame = expr.window.frame
        assert frame.start.kind == "preceding"
        assert frame.end.kind == "current_row"

    def test_expression_bounds(self):
        expr = parse("""
            select median(p) over (order by t
              range between current row and good_for following)
        """).items[0].expr
        assert expr.window.frame.end.offset == ast.ColumnRef("good_for")

    def test_interval_bound(self):
        expr = parse("""
            select count(distinct c) over (order by d
              range between interval '1 month' preceding and current row)
        """).items[0].expr
        assert expr.window.frame.start.offset.days == 30


class TestFromClause:
    def test_joins(self):
        stmt = parse("select * from a join b on a.x = b.x")
        assert isinstance(stmt.from_, ast.Join)
        assert stmt.from_.kind == "inner"
        stmt = parse("select * from a cross join b")
        assert stmt.from_.kind == "cross"
        stmt = parse("select * from a left join b on a.x = b.x")
        assert stmt.from_.kind == "left"
        stmt = parse("select * from a, b")
        assert stmt.from_.kind == "cross"

    def test_derived_table(self):
        stmt = parse("select * from (select 1 as x) sub")
        assert isinstance(stmt.from_, ast.DerivedTable)
        assert stmt.from_.alias == "sub"

    def test_ctes(self):
        stmt = parse("with a as (select 1), b as (select 2) "
                     "select * from a, b")
        assert [name for name, _ in stmt.ctes] == ["a", "b"]


def test_paper_section_2_4_query_parses():
    parse("""
      select dbsystem, tps,
        count(distinct dbsystem) over w,
        rank(order by tps desc) over w,
        first_value(tps order by tps desc) over w,
        first_value(dbsystem order by tps desc) over w,
        lead(tps order by tps desc) over w,
        lead(dbsystem order by tps desc) over w
      from tpcc_results
      window w as (order by submission_date
        range between unbounded preceding and current row)
    """)


def test_paper_stock_orders_query_parses():
    parse("""
      select price > median(price) over (
        order by placement_time
        range between current row and good_for following)
      from stock_orders
    """)
