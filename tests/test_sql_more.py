"""Additional SQL executor coverage: scalar functions, edge cases,
uncorrelated-subquery caching, mixed features."""

import datetime

import pytest

from repro.errors import SqlAnalysisError
from repro.sql import Catalog, ast, execute
from repro.table import DataType, Table


@pytest.fixture
def catalog():
    t = Table.from_dict({
        "i": (DataType.INT64, [3, 1, 2, None]),
        "f": (DataType.FLOAT64, [1.5, -2.5, 0.0, 4.0]),
        "s": (DataType.STRING, ["Ab", "cd", None, "ef"]),
        "d": (DataType.DATE, [datetime.date(2021, 3, 14), None,
                              datetime.date(2020, 12, 31),
                              datetime.date(2021, 1, 1)]),
        "b": (DataType.BOOL, [True, False, None, True]),
    })
    return Catalog({"t": t})


class TestScalarFunctions:
    def test_string_functions(self, catalog):
        out = execute("select lower(s), upper(s), length(s) from t "
                      "where s is not null order by s", catalog)
        assert out.row(0) == ("ab", "AB", 2)

    def test_concat_operator(self, catalog):
        out = execute("select s || '!' from t where i = 3", catalog)
        assert out.row(0) == ("Ab!",)

    def test_least_greatest(self, catalog):
        out = execute("select least(f, 0.5), greatest(f, 0.5) from t "
                      "where i = 3", catalog)
        assert out.row(0) == (0.5, 1.5)

    def test_year_and_date_arithmetic(self, catalog):
        out = execute("select year(d), d + 10, d - d from t where i = 3",
                      catalog)
        assert out.row(0) == (2021, datetime.date(2021, 3, 24), 0)

    def test_date_diff_days(self, catalog):
        out = execute("select d - date '2021-03-04' from t where i = 3",
                      catalog)
        assert out.row(0) == (10,)

    def test_interval_in_expression(self, catalog):
        out = execute("select d + interval '1 week' from t where i = 3",
                      catalog)
        assert out.row(0) == (datetime.date(2021, 3, 21),)

    def test_wrong_arity(self, catalog):
        with pytest.raises(SqlAnalysisError):
            execute("select abs(i, f) from t", catalog)

    def test_round_default_digits(self, catalog):
        out = execute("select round(f) from t where i = 3", catalog)
        assert out.row(0) == (2.0,)

    def test_round_over_zero_rows(self, catalog):
        """The scale comes from the literal, not from the (empty) rows."""
        out = execute("select round(f, 2), round(f, -1) from t "
                      "where i > 100", catalog)
        assert out.num_rows == 0
        assert [c.dtype for c in out.columns] == [DataType.FLOAT64] * 2
        out = execute("select round(f, -1) from t where i = 3", catalog)
        assert out.row(0) == (0.0,)

    def test_round_scale_must_be_a_constant(self, catalog):
        with pytest.raises(SqlAnalysisError, match="scale"):
            execute("select round(f, i) from t", catalog)
        with pytest.raises(SqlAnalysisError, match="scale"):
            execute("select round(f, i) from t where i > 100", catalog)


class TestLiteralTypesKeepTheirOwnColumns:
    """Expressions that differ only in a literal's type (``1``, ``1.0``,
    ``TRUE``) are different expressions: the planner gives each its own
    output column."""

    def test_aggregates(self, catalog):
        out = execute("select sum(i + 1) as a, sum(i + 1.0) as b from t",
                      catalog)
        assert out.row(0) == (9, 9.0)
        assert [c.dtype for c in out.columns] == \
            [DataType.INT64, DataType.FLOAT64]

    def test_window_calls(self, catalog):
        out = execute("select sum(i + 1) over w as a, "
                      "sum(i + 1.0) over w as b from t "
                      "window w as (order by i nulls first) order by i",
                      catalog)
        assert [c.dtype for c in out.columns] == \
            [DataType.INT64, DataType.FLOAT64]
        assert out.column("a").to_list() == [2, 5, 9, None]
        assert out.column("b").to_list() == [2.0, 5.0, 9.0, None]

    def test_true_against_one(self, catalog):
        out = execute("select min(1) as a, min(true) as b from t", catalog)
        assert out.row(0) == (1, True)
        assert [c.dtype for c in out.columns] == \
            [DataType.INT64, DataType.BOOL]
        out = execute("select first_value(1) over w as a, "
                      "first_value(true) over w as b from t "
                      "window w as (order by i)", catalog)
        assert [c.dtype for c in out.columns] == \
            [DataType.INT64, DataType.BOOL]
        assert out.row(0) == (1, True)

    def test_exact_key_tells_literal_types_apart(self):
        keys = {ast.Exact(ast.Literal(v)): type(v).__name__
                for v in (1, 1.0, True)}
        assert len(keys) == 3
        # A separately built equal copy finds its entry.
        assert keys[ast.Exact(ast.Literal(1.0))] == "float"
        sum_x = ast.FuncCall("sum", (ast.ColumnRef("x"),))
        assert ast.Exact(sum_x) == \
            ast.Exact(ast.FuncCall("sum", (ast.ColumnRef("x"),)))

    def test_equal_copies_share_one_column(self, catalog):
        out = execute("select sum(i + 1.0) as a from t "
                      "having sum(i + 1.0) > 0 order by sum(i + 1.0)",
                      catalog)
        assert out.row(0) == (9.0,)
        assert [c.dtype for c in out.columns] == [DataType.FLOAT64]


class TestEdgeCases:
    def test_boolean_column_in_where(self, catalog):
        out = execute("select i from t where b order by i", catalog)
        assert out.column("i").to_list() == [3, None]

    def test_case_with_operand(self, catalog):
        out = execute("""
            select case i when 1 then 'one' when 2 then 'two'
                   else 'many' end from t order by i nulls last
        """, catalog)
        assert out.columns[0].to_list() == ["one", "two", "many", "many"]

    def test_in_with_null_probe(self, catalog):
        out = execute("select count(*) from t where i in (1, 2, 3)",
                      catalog)
        assert out.row(0) == (3,)  # NULL never matches IN

    def test_not_between(self, catalog):
        out = execute("select i from t where i not between 1 and 2 "
                      "order by i", catalog)
        assert out.column("i").to_list() == [3]

    def test_nested_parens_and_precedence(self, catalog):
        out = execute("select (1 + 2) * 3 - -4", catalog)
        assert out.row(0) == (13,)

    def test_division_null_on_zero(self, catalog):
        out = execute("select f / 0 from t where i = 3", catalog)
        assert out.row(0) == (None,)

    def test_limit_zero(self, catalog):
        out = execute("select i from t limit 0", catalog)
        assert out.num_rows == 0

    def test_empty_result_propagates_schema(self, catalog):
        out = execute("select i as renamed from t where 1 = 2", catalog)
        assert out.schema.names() == ["renamed"]
        assert out.num_rows == 0

    def test_duplicate_output_names_uniquified(self, catalog):
        out = execute("select i, i from t limit 1", catalog)
        assert out.schema.names() == ["i", "i_1"]

    def test_semicolon_and_comments(self, catalog):
        out = execute("select 1 -- trailing\n;", catalog)
        assert out.row(0) == (1,)


class TestSubqueryBehaviour:
    def test_uncorrelated_subquery_executes_once(self, catalog, monkeypatch):
        """The probe-based correlation detection must broadcast a single
        execution for uncorrelated subqueries."""
        import repro.sql.executor as executor_module
        calls = {"n": 0}
        original = executor_module.run_statement

        def counting(statement, ctx):
            calls["n"] += 1
            return original(statement, ctx)

        monkeypatch.setattr(executor_module, "run_statement", counting)
        execute("select i, (select max(f) from t) from t", catalog)
        # 1 outer + 1 probe for the subquery (not one per row)
        assert calls["n"] == 2

    def test_correlated_subquery_runs_per_row(self, catalog):
        out = execute("""
            select i, (select count(*) from t t2 where t2.i < t1.i) below
            from t t1 order by i nulls last
        """, catalog)
        assert out.column("below").to_list() == [0, 1, 2, 0]

    def test_exists_negated(self, catalog):
        out = execute("""
            select count(*) from t t1
            where not exists (select 1 from t t2 where t2.i > t1.i)
        """, catalog)
        # rows with no larger i: i=3, and i=NULL (comparison yields NULL)
        assert out.row(0) == (2,)


class TestMixedFeatures:
    def test_window_over_join_result(self, catalog):
        t2 = Table.from_dict({
            "i": (DataType.INT64, [1, 2, 3]),
            "w": (DataType.INT64, [10, 20, 30]),
        })
        cat = Catalog({"t": execute("select i, f from t where i is not "
                                    "null", catalog), "t2": t2})
        out = execute("""
            select a.i, sum(b.w) over (order by a.i) running
            from t a join t2 b on a.i = b.i
            order by a.i
        """, cat)
        assert out.column("running").to_list() == [10, 30, 60]

    def test_derived_table_with_window_then_aggregate(self, catalog):
        out = execute("""
            select max(rn) from (
              select row_number() over (order by i nulls last) as rn
              from t) sub
        """, catalog)
        assert out.row(0) == (4,)

    def test_distinct_on_expressions(self, catalog):
        out = execute("select distinct i is null from t", catalog)
        assert sorted(out.columns[0].to_list()) == [False, True]


class TestLike:
    def _catalog(self):
        t = Table.from_dict({
            "s": (DataType.STRING,
                  ["hello", "help", "world", "a.b", "axb", None]),
        })
        return Catalog({"t": t})

    def test_prefix_wildcard(self):
        out = execute("select s from t where s like 'hel%' order by s",
                      self._catalog())
        assert out.column("s").to_list() == ["hello", "help"]

    def test_underscore_matches_one_char(self):
        out = execute("select s from t where s like 'h_lp'",
                      self._catalog())
        assert out.column("s").to_list() == ["help"]

    def test_regex_metacharacters_escaped(self):
        out = execute("select s from t where s like 'a.b'",
                      self._catalog())
        assert out.column("s").to_list() == ["a.b"]

    def test_not_like(self):
        out = execute("select s from t where s not like '%l%' order by s",
                      self._catalog())
        assert out.column("s").to_list() == ["a.b", "axb"]

    def test_null_never_matches(self):
        out = execute("select count(*) from t where s like '%'",
                      self._catalog())
        assert out.row(0) == (5,)

    def test_like_on_numbers_rejected(self):
        t = Table.from_dict({"i": (DataType.INT64, [1])})
        with pytest.raises(SqlAnalysisError):
            execute("select i from t where i like '1%'",
                    Catalog({"t": t}))

    def test_like_in_explain(self):
        from repro.sql import explain
        plan = explain("select * from t where s like 'x%'")
        assert "like 'x%'" in plan
