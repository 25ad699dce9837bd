"""SQL window functions end to end, incl. the paper's example queries."""

import datetime

import pytest

from conftest import assert_columns_equal
from repro.errors import SqlAnalysisError
from repro.sql import Catalog, execute
from repro.table import DataType, Table
from repro.tpch import lineitem, tpcc_results
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    preceding,
    window_query,
)
from repro.window.frame import OrderItem


@pytest.fixture
def catalog():
    table = Table.from_dict({
        "g": (DataType.STRING, ["a", "a", "b", "b", "a", "b"]),
        "o": (DataType.INT64, [1, 2, 1, 2, 3, 3]),
        "v": (DataType.INT64, [10, 20, 30, 40, 50, None]),
    })
    return Catalog({"t": table})


class TestBasicWindows:
    def test_running_sum(self, catalog):
        out = execute("""
            select o, sum(v) over (order by o, v
              rows between unbounded preceding and current row) s
            from t order by o, v
        """, catalog)
        assert out.column("s").to_list() == [10, 40, 60, 100, 150, 150]

    def test_partitioned(self, catalog):
        out = execute("""
            select g, o, row_number() over (partition by g order by o) rn
            from t order by g, o
        """, catalog)
        assert out.column("rn").to_list() == [1, 2, 3, 1, 2, 3]

    def test_default_frame_is_running(self, catalog):
        """Without an explicit frame, ORDER BY implies RANGE UNBOUNDED
        PRECEDING .. CURRENT ROW, with peers included."""
        out = execute("select count(*) over (order by g) c from t "
                      "order by g", catalog)
        assert out.column("c").to_list() == [3, 3, 3, 6, 6, 6]

    def test_no_order_is_whole_partition(self, catalog):
        out = execute("select sum(v) over () s from t limit 1", catalog)
        assert out.row(0) == (150,)

    def test_named_window_shared(self, catalog):
        out = execute("""
            select sum(v) over w s, count(*) over w c from t
            window w as (order by o rows between 1 preceding
                         and current row)
            order by o, v limit 2
        """, catalog)
        assert out.num_rows == 2
        assert out.schema.names() == ["s", "c"]

    def test_window_in_order_by(self, catalog):
        out = execute("""
            select v from t where v is not null
            order by rank() over (order by v desc)
        """, catalog)
        assert out.column("v").to_list() == [50, 40, 30, 20, 10]

    def test_unknown_named_window(self, catalog):
        with pytest.raises(SqlAnalysisError):
            execute("select sum(v) over nope from t", catalog)

    def test_window_with_group_by_rejected(self, catalog):
        with pytest.raises(SqlAnalysisError):
            execute("select g, sum(count(*)) over () from t group by g",
                    catalog)


class TestProposedExtensions:
    def test_framed_distinct_count(self, catalog):
        out = execute("""
            select count(distinct g) over (order by o, v rows between
              2 preceding and current row) c
            from t order by o, v
        """, catalog)
        assert out.column("c").to_list() == [1, 2, 2, 2, 2, 2]

    def test_framed_percentile_with_order(self, catalog):
        out = execute("""
            select percentile_disc(0.5, order by v) over (
              order by o, v rows between 1 preceding and current row) m
            from t order by o, v
        """, catalog)
        assert out.column("m").to_list() == [10, 10, 20, 20, 40, 50]

    def test_window_filter_clause(self, catalog):
        out = execute("""
            select sum(v) filter (where g = 'a') over (order by o, v
              rows between unbounded preceding and current row) s
            from t order by o, v
        """, catalog)
        assert out.column("s").to_list() == [10, 10, 30, 30, 80, 80]

    def test_exclude_current_row(self, catalog):
        out = execute("""
            select sum(v) over (order by o, v rows between unbounded
              preceding and unbounded following exclude current row) s
            from t order by o, v
        """, catalog)
        assert out.column("s").to_list() == [140, 120, 130, 110, 100, 150]

    def test_lead_with_function_order(self, catalog):
        out = execute("""
            select v, lead(v order by v desc) over (order by o, v
              rows between unbounded preceding and unbounded following) nxt
            from t where v is not null order by v desc
        """, catalog)
        assert out.column("nxt").to_list() == [40, 30, 20, 10, None]

    def test_expression_frame_bounds(self):
        table = Table.from_dict({
            "o": (DataType.INT64, [1, 2, 3, 4]),
            "w": (DataType.INT64, [0, 1, 2, 3]),
            "v": (DataType.INT64, [1, 1, 1, 1]),
        })
        out = execute("""
            select count(*) over (order by o rows between w preceding
              and current row) c
            from t order by o
        """, Catalog({"t": table}))
        assert out.column("c").to_list() == [1, 2, 3, 4]


class TestAgainstOperatorApi:
    """SQL results must match direct window-operator invocations."""

    def test_median_matches(self):
        table = lineitem(800)
        catalog = Catalog({"lineitem": table})
        sql = execute("""
            select percentile_disc(0.5, order by l_extendedprice) over (
              order by l_shipdate rows between 49 preceding
              and current row) m
            from lineitem
        """, catalog).column("m").to_list()
        spec = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                          frame=FrameSpec.rows(preceding(49),
                                               current_row()))
        call = WindowCall("percentile_disc", ("l_extendedprice",),
                          fraction=0.5, output="m")
        api = window_query(table, [call],
                           spec).column("m").to_list()
        assert_columns_equal(sql, api)

    def test_paper_tpcc_query_properties(self):
        catalog = Catalog({"tpcc_results": tpcc_results(80)})
        out = execute("""
          select dbsystem, tps,
            count(distinct dbsystem) over w as systems,
            rank(order by tps desc) over w as rnk,
            first_value(tps order by tps desc) over w as best
          from tpcc_results
          window w as (order by submission_date
            range between unbounded preceding and current row)
          order by submission_date
        """, catalog)
        systems = out.column("systems").to_list()
        ranks = out.column("rnk").to_list()
        best = out.column("best").to_list()
        tps = out.column("tps").to_list()
        assert systems == sorted(systems), \
            "competitor count never decreases over time"
        assert ranks[0] == 1
        assert all(b >= t for b, t in zip(best, tps))
        running_max = -1.0
        for b, t in zip(best, tps):
            running_max = max(running_max, t)
            assert b == pytest.approx(running_max)

    def test_date_range_interval_frame(self):
        table = Table.from_dict({
            "d": (DataType.DATE, [datetime.date(2020, 1, 1),
                                  datetime.date(2020, 1, 5),
                                  datetime.date(2020, 1, 20),
                                  datetime.date(2020, 2, 1)]),
            "u": (DataType.INT64, [1, 1, 2, 3]),
        })
        out = execute("""
            select count(distinct u) over (order by d range between
              interval '2 weeks' preceding and current row) c
            from t order by d
        """, Catalog({"t": table}))
        assert out.column("c").to_list() == [1, 1, 1, 2]


class TestRangeEdgeCases:
    def test_desc_range_frame(self):
        t = Table.from_dict({
            "o": (DataType.INT64, [5, 3, 1, 10]),
            "v": (DataType.INT64, [1, 2, 3, 4]),
        })
        out = execute("""
          select o, count(*) over (order by o desc
            range between 2 preceding and current row) c
          from t order by o desc
        """, Catalog({"t": t}))
        # DESC order 10,5,3,1: RANGE 2 PRECEDING covers values [o, o+2]
        assert out.column("c").to_list() == [1, 1, 2, 2]

    def test_multi_key_range_offsets_rejected(self):
        from repro.errors import FrameError
        t = Table.from_dict({
            "o": (DataType.INT64, [1, 2]),
            "v": (DataType.INT64, [3, 4]),
        })
        with pytest.raises(FrameError):
            execute("select count(*) over (order by o, v range between "
                    "1 preceding and current row) from t",
                    Catalog({"t": t}))

    def test_range_with_null_order_keys(self):
        t = Table.from_dict({
            "o": (DataType.INT64, [1, None, 2, None]),
            "v": (DataType.INT64, [1, 1, 1, 1]),
        })
        out = execute("""
          select count(*) over (order by o
            range between 1 preceding and current row) c
          from t order by o nulls last
        """, Catalog({"t": t}))
        # NULL keys are their own peer group at the end
        assert out.column("c").to_list() == [1, 2, 2, 2]


class TestStaticResultTypes:
    """A window column's type comes from the call and its argument's
    schema type, not from the values that happen to come out."""

    @pytest.fixture
    def dated(self):
        return Catalog({"t": Table.from_dict({
            "d": (DataType.DATE, [datetime.date(2020, 1, day)
                                  for day in (3, 1, 2, 5, 4)]),
            "k": (DataType.INT64, [5, 3, 4, 1, 2]),
        })})

    @pytest.mark.parametrize("expr,dtype", [
        ("first_value(d) over (order by d rows between 1 following "
         "and 1 preceding)", DataType.DATE),
        ("max(d) over (order by d rows between 1 following "
         "and 1 preceding)", DataType.DATE),
        ("lead(d, 300) over (order by d)", DataType.DATE),
        ("nth_value(k, 9) over (order by d)", DataType.INT64),
        ("sum(k) over (order by d rows between 1 following "
         "and 1 preceding)", DataType.INT64),
    ])
    def test_all_null_result_keeps_its_type(self, dated, expr, dtype):
        out = execute(f"select {expr} as v from t", dated)
        assert out.schema.field("v").dtype is dtype
        assert out.column("v").to_list() == [None] * 5

    def test_prepared_statement_schema_survives_emptied_frames(self, dated):
        from repro.sql import Session
        session = Session(dated)
        try:
            statement = session.prepare(
                "select first_value(d) over w as f, max(k) over w as m "
                "from t window w as (order by d rows between $1 preceding "
                "and 1 preceding)")
            full, empty = (statement.execute([p]).table for p in (2, 0))
        finally:
            session.close()
        assert full.schema == empty.schema
        assert [f.dtype for f in empty.schema] == [DataType.DATE,
                                                   DataType.INT64]
        assert empty.column("f").to_list() == [None] * 5
        assert full.column("f").null_count == 1

    def test_navigation_default_widens_whether_or_not_it_surfaces(
            self, dated):
        for offset, surfaced in ((1, 1), (0, 0)):
            out = execute(
                f"select lead(k, {offset}, 0.5) over (order by d rows "
                "between unbounded preceding and unbounded following) "
                "as v from t", dated)
            assert out.schema.field("v").dtype is DataType.FLOAT64
            assert out.column("v").to_list().count(0.5) == surfaced
