"""EXPLAIN plan rendering."""


from repro.sql import explain


def test_simple_scan():
    plan = explain("select a, b from t where a > 1 order by b limit 3")
    assert "Scan t" in plan
    assert "Filter ((a > 1))" in plan
    assert "Sort (b)" in plan
    assert "Limit (3)" in plan
    # ordering: limit above sort above project above filter above scan
    assert plan.index("Limit") < plan.index("Sort") < plan.index("Project")
    assert plan.index("Project") < plan.index("Filter") < plan.index("Scan")


def test_join_renders_nested_loop():
    plan = explain("select * from a join b on a.x = b.x")
    assert "NestedLoopJoin (inner, on (a.x = b.x))" in plan
    assert plan.count("Scan") == 2


def test_cross_join():
    plan = explain("select * from a, b")
    assert "NestedLoopJoin (cross)" in plan


def test_aggregate_and_having():
    plan = explain("select g, count(*) from t group by g "
                   "having count(*) > 1")
    assert "Aggregate (group by g)" in plan
    assert "Having" in plan


def test_having_only_aggregate_renders_aggregate():
    # The executor aggregates when only HAVING holds an aggregate;
    # EXPLAIN used to test the select list alone and print no node.
    plan = explain("select 1 from t having count(*) > 0")
    assert "Aggregate (group by ())" in plan
    assert "Having ((count(*) > 0))" in plan


def test_window_only_in_order_by_renders_window():
    plan = explain("select a from t order by rank() over (order by a)")
    assert "Window (rank(...) OVER (...))" in plan
    assert plan.index("Sort") < plan.index("Window") < plan.index("Scan")


def test_window_node():
    plan = explain("select rank(order by v desc) over w from t "
                   "window w as (order by o)")
    assert "Window (rank(...) OVER w)" in plan


def test_cte_and_subquery():
    plan = explain("""
        with c as (select 1 as x)
        select (select max(x) from c) from (select * from c) sub
    """)
    assert "CTE c:" in plan
    assert "Subquery AS sub:" in plan
    assert "(correlated subquery)" in plan


def test_distinct_and_star():
    plan = explain("select distinct t.* from t")
    assert "Distinct" in plan
    assert "t.*" in plan


def test_expression_rendering():
    plan = explain("select case when a then 1 end, cast(a as int), "
                   "b between 1 and 2, c in (1, 2), d is not null, "
                   "interval '1 week', -e, 's' from t")
    assert "CASE ..." in plan
    assert "CAST(a AS int)" in plan
    assert "between" in plan
    assert "in (1, 2)" in plan
    assert "is not null" in plan
    assert "INTERVAL '1 week'" in plan
    assert "'s'" in plan


def test_figure9_shapes_visible():
    """The paper's point: the traditional formulations are nested-loop
    plans; EXPLAIN makes that visible."""
    selfjoin = explain("""
        with lineitem_rn as (select 1 as rn)
        select percentile_disc(0.5) within group (order by l2.rn)
        from lineitem_rn l1 join lineitem_rn l2
          on l2.rn between l1.rn - 999 and l1.rn
        group by l1.rn
    """)
    assert "NestedLoopJoin" in selfjoin
    assert "Aggregate" in selfjoin


def test_window_under_limit_shows_its_demand():
    # LIMIT straight over the window keeps input positions [0, 100):
    # the window answers only those rows.
    window = "count(distinct b) over w as d from t window w as (order by a)"
    plan = explain(f"select a, {window} limit 100")
    assert "Window (count(...) OVER w) [first 100 rows]" in plan
    assert "Limit (100)" in plan
    # A sort or DISTINCT in between, or no LIMIT: every row is answered.
    for sql in (f"select a, {window} order by d limit 100",
                f"select distinct a, {window} limit 100",
                f"select a, {window}"):
        assert "[first" not in explain(sql), sql


def test_q19_shows_implied_filters_under_both_scans():
    # q19's OR reads lineitem and part. The planner factors out the
    # conjuncts every branch shares and derives one implied filter per
    # side; the OR itself still runs above the join.
    from repro.sql import Catalog
    from repro.tpch import QUERIES, tpch_tables

    catalog = Catalog(dict(tpch_tables(0.002, 2022)))
    lines = explain(QUERIES["q19"], catalog=catalog).split("\n")

    def indent(line):
        return len(line) - len(line.lstrip())

    join = next(i for i, line in enumerate(lines) if "HashJoin" in line)
    above = lines[join - 1]
    assert above.strip().startswith("Filter (") and " or " in above
    assert "[implied]" not in above
    implied = [i for i, line in enumerate(lines) if "[implied]" in line]
    assert len(implied) == 2
    for i, table in zip(implied, ("lineitem", "part")):
        assert indent(lines[i]) == indent(lines[join]) + 2  # join inputs
        scan = next(line for line in lines[i + 1:] if "Scan" in line)
        assert f"Scan {table}" in scan
    assert "l.l_quantity between 1 and 11" in lines[implied[0]]
    assert "p.p_brand = 'Brand#12'" in lines[implied[1]]
    assert "l.l_quantity" not in lines[implied[1]]
    # the conjuncts every branch shares are a plain filter on lineitem
    assert any("l.l_shipmode in ('AIR', 'REG AIR')" in line
               and "[implied]" not in line for line in lines[join:])
