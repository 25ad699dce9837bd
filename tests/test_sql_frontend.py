"""Relational frontend: negative parses, prepared statements,
catalog introspection.

The happy paths live in the TPC-H golden suite
(``test_tpch_queries.py``); this file pins the frontend's *error*
contract — what gets rejected, with which exception type, and that the
messages say something actionable — plus the new Session surface
(``prepare``/``tables``/``describe``).
"""

import datetime

import pytest

from repro.errors import (
    ConfigurationError,
    ParameterBindingError,
    SqlAnalysisError,
    SqlSyntaxError,
)
from repro.sql import Catalog, Session
from repro.table import DataType, Table


def _catalog():
    t = Table.from_dict({
        "a": (DataType.INT64, [1, 2, 3, 4]),
        "b": (DataType.STRING, ["x", "y", "x", "z"]),
        "d": (DataType.DATE, [datetime.date(2024, 1, i + 1)
                              for i in range(4)]),
    })
    w = Table.from_dict({
        "a": (DataType.INT64, [2, 3, 5]),
        "v": (DataType.FLOAT64, [0.5, 1.5, 2.5]),
    })
    return Catalog({"t": t, "w": w})


@pytest.fixture()
def session():
    session = Session(_catalog())
    yield session
    session.close()


class TestNegativeParses:
    def test_unclosed_cte_body(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("WITH c AS (SELECT a FROM t SELECT * FROM c")

    def test_cte_missing_as(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("WITH c (SELECT a FROM t) SELECT * FROM c")

    def test_join_without_on(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("SELECT * FROM t JOIN w WHERE t.a = w.a")

    def test_ambiguous_column_across_join(self, session):
        with pytest.raises(SqlAnalysisError, match="ambiguous"):
            session.execute(
                "SELECT a FROM t JOIN w ON t.a = w.a")

    def test_unknown_alias_qualifier(self, session):
        with pytest.raises(SqlAnalysisError):
            session.execute(
                "SELECT z.a FROM t AS x JOIN w AS y ON x.a = y.a")

    def test_correlated_in_subquery_rejected(self, session):
        with pytest.raises(SqlAnalysisError,
                           match="correlated IN subqueries"):
            session.execute(
                "SELECT a FROM t WHERE a IN "
                "(SELECT w.a FROM w WHERE w.v > t.a)")

    def test_correlated_in_suggests_rewrite(self, session):
        with pytest.raises(SqlAnalysisError, match="join or EXISTS"):
            session.execute(
                "SELECT a FROM t WHERE a IN "
                "(SELECT w.a FROM w WHERE w.v > t.a)")

    def test_in_subquery_must_be_single_column(self, session):
        with pytest.raises(SqlAnalysisError, match="one column"):
            session.execute(
                "SELECT a FROM t WHERE a IN (SELECT a, v FROM w)")

    def test_ungrouped_column_names_the_column(self, session):
        with pytest.raises(SqlAnalysisError,
                           match="'b' must appear in GROUP BY"):
            session.execute("SELECT b, count(*) FROM t GROUP BY a")

    def test_ungrouped_expression_names_the_expression(self, session):
        # a + 1 is not the key a + 1.0: literals of different types
        # group apart.
        with pytest.raises(SqlAnalysisError,
                           match=r"'a \+ 1' must appear in GROUP BY"):
            session.execute(
                "SELECT a + 1, count(*) FROM t GROUP BY a + 1.0")

    def test_ungrouped_order_by_key_names_the_column(self, session):
        with pytest.raises(SqlAnalysisError,
                           match="'d' must appear in GROUP BY"):
            session.execute("SELECT a, count(*) FROM t GROUP BY a ORDER BY d")

    def test_unknown_column_in_grouped_select_stays_unknown(self, session):
        with pytest.raises(SqlAnalysisError, match="unknown column 'z'"):
            session.execute("SELECT z, count(*) FROM t GROUP BY a")


def test_group_by_key_matches_its_other_spelling(session):
    want = [(1, 1), (2, 1), (3, 1), (4, 1)]
    assert session.execute(
        "SELECT t.a, count(*) FROM t GROUP BY a ORDER BY 1").to_rows() == want
    assert session.execute(
        "SELECT a, count(*) FROM t GROUP BY t.a ORDER BY 1").to_rows() == want


class TestPreparedStatements:
    def test_positional_roundtrip_and_cache(self, session):
        stmt = session.prepare(
            "SELECT a FROM t WHERE a > $1 ORDER BY a")
        assert stmt.parameter_keys == [1]
        assert stmt.execute([2]).to_rows() == [(3,), (4,)]
        assert stmt.execute([3]).to_rows() == [(4,)]

    def test_named_parameters(self, session):
        stmt = session.prepare("SELECT a FROM t WHERE b = :want")
        assert stmt.parameter_keys == ["want"]
        assert stmt.execute({"want": "x"}).to_rows() == [(1,), (3,)]

    def test_date_parameter_accepts_iso_string(self, session):
        stmt = session.prepare("SELECT a FROM t WHERE d >= $1")
        assert stmt.execute(["2024-01-03"]).to_rows() == [(3,), (4,)]
        assert stmt.execute(
            [datetime.date(2024, 1, 4)]).to_rows() == [(4,)]

    def test_arity_mismatch(self, session):
        stmt = session.prepare("SELECT a FROM t WHERE a > $1")
        with pytest.raises(ParameterBindingError, match="1 parameter"):
            stmt.execute([1, 2])

    def test_type_mismatch_names_the_slot(self, session):
        stmt = session.prepare("SELECT a FROM t WHERE a > $1")
        with pytest.raises(ParameterBindingError, match=r"\$1"):
            stmt.execute(["three"])

    def test_missing_named_parameter(self, session):
        stmt = session.prepare(
            "SELECT a FROM t WHERE b = :x AND a > :y")
        with pytest.raises(ParameterBindingError, match=":y"):
            stmt.execute({"x": "x"})

    def test_positional_params_need_a_sequence(self, session):
        stmt = session.prepare("SELECT a FROM t WHERE a > $1")
        with pytest.raises(ParameterBindingError):
            stmt.execute({"1": 3})

    def test_mixing_positional_and_named_rejected(self, session):
        with pytest.raises(ParameterBindingError, match="mix"):
            session.prepare("SELECT a FROM t WHERE a > $1 AND b = :x")

    def test_gapped_positional_rejected(self, session):
        with pytest.raises(ParameterBindingError):
            session.prepare("SELECT a FROM t WHERE a > $2")

    def test_unbound_parameter_in_plain_execute(self, session):
        with pytest.raises(ParameterBindingError, match="unbound"):
            session.execute("SELECT a FROM t WHERE a > $1")

    def test_prepare_requires_string(self, session):
        with pytest.raises(ConfigurationError):
            session.prepare(42)

    def test_null_binds_any_slot(self, session):
        stmt = session.prepare("SELECT a FROM t WHERE a > $1")
        assert stmt.execute([None]).to_rows() == []


class TestIntrospection:
    def test_tables_are_sorted_schemas(self, session):
        schemas = session.tables()
        assert [s.name for s in schemas] == ["t", "w"]
        assert schemas[0].row_count == 4

    def test_describe_columns(self, session):
        schema = session.describe("w")
        assert [(c.name, c.dtype) for c in schema.columns] == [
            ("a", "int64"), ("v", "float64")]

    def test_describe_unknown_table(self, session):
        with pytest.raises(SqlAnalysisError):
            session.describe("nope")

    def test_schema_to_dict_is_json_shaped(self, session):
        out = session.describe("t").to_dict()
        assert out["name"] == "t"
        assert out["columns"][0] == {"name": "a", "dtype": "int64"}
