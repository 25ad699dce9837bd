"""LIMIT over window functions: the window operator answers only the
rows the LIMIT keeps.

The planner hands the Window node a row demand (``WindowNode.rows``)
when no DISTINCT or ORDER BY sits between the Limit and the Window;
the operator then probes only those rows. Whatever the demand, the
rows must equal the leading rows of the un-LIMITed statement — cold
and warm, on every function family, frame mode, EXCLUDE clause,
FILTER and IGNORE NULLS, through the naive rung and the process pool.
Run longer with ``--hypothesis-profile=long``.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Catalog, Session, SessionConfig, execute
from repro.mst.aggregates import make_udaf
from repro.resilience import ResourceLimits
from repro.resilience.context import current_context
from repro.sql import plan
from repro.sql.executor import _relation_to_table, run_statement
from repro.sql.expr import Context
from repro.sql.parser import parse
from repro.table import DataType, Table
from repro.tpch import lineitem
from repro.window import (FrameExclusion, FrameSpec, WindowCall,
                          WindowOperator, WindowSpec, current_row, following,
                          preceding, window_query)
from repro.window.frame import OrderItem

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _rows(table):
    """Result rows with NaN made comparable (NaN != NaN in Python)."""
    return [tuple("NaN" if isinstance(v, float) and math.isnan(v) else v
                  for v in row) for row in table.to_rows()]


# ----------------------------------------------------------------------
# SQL: LIMIT k == the first k rows, every family
# ----------------------------------------------------------------------
#: One call per function family (and then some): DISTINCT aggregates,
#: percentiles, the rank family, value and navigation functions, plain
#: aggregates and mode.
FUNCTIONS = [
    "count(DISTINCT y)", "sum(DISTINCT x)", "avg(DISTINCT y)",
    "percentile_disc(0.5) WITHIN GROUP (ORDER BY x)",
    "percentile_cont(0.25) WITHIN GROUP (ORDER BY y)", "median(y)",
    "rank(ORDER BY y)", "dense_rank(ORDER BY y DESC)",
    "percent_rank(ORDER BY x)", "cume_dist(ORDER BY y)",
    "row_number(ORDER BY x)", "ntile(3 ORDER BY y)",
    "first_value(x)", "last_value(y) IGNORE NULLS",
    "nth_value(x, 2) FROM LAST", "nth_value(y, 2 ORDER BY x) IGNORE NULLS",
    "lead(y)", "lead(y, 1 ORDER BY x)", "lag(x, 2, 0.5) IGNORE NULLS",
    "sum(x)", "min(y)", "max(x)", "count(*)", "avg(y)", "count(x)",
    "mode(y)",
]
_FILTERABLE = ("count(", "sum(", "avg(", "min(", "max(", "median(",
               "percentile_", "mode(")

_OFFSET = st.one_of(
    st.tuples(st.integers(0, 3), st.sampled_from(["PRECEDING",
                                                  "FOLLOWING"])),
    st.just(("w", "PRECEDING")), st.just(("w", "FOLLOWING")))
_BOUND = st.one_of(st.just("UNBOUNDED"), st.just("CURRENT ROW"), _OFFSET)


def _bound(bound, start):
    if bound == "UNBOUNDED":
        return "UNBOUNDED " + ("PRECEDING" if start else "FOLLOWING")
    if bound == "CURRENT ROW":
        return bound
    return f"{bound[0]} {bound[1]}"


@st.composite
def statements(draw):
    n = draw(st.integers(0, 30))
    # Many one-row partitions next to one large partition.
    lonely = [draw(st.booleans()) and draw(st.booleans()) for _ in range(n)]
    rows = {
        "g": [100 + i if alone else 0 for i, alone in enumerate(lonely)],
        "o": [draw(st.none() | st.integers(0, 6)) for _ in range(n)],
        "x": [draw(st.sampled_from([None, math.nan, 0.5, 1.0, 2.0, -3.0]))
              for _ in range(n)],
        "y": [draw(st.none() | st.integers(0, 4)) for _ in range(n)],
        "f": [draw(st.sampled_from([True, True, False, None]))
              for _ in range(n)],
        # Per-row frame offsets: the frames are not monotonic.
        "w": [draw(st.integers(0, 3)) for _ in range(n)],
    }
    mode = draw(st.sampled_from(["ROWS", "RANGE", "GROUPS"]))
    start, end = draw(_BOUND), draw(_BOUND)
    if mode != "ROWS":  # per-row offsets are a ROWS feature here
        start, end = (("1", b[1]) if isinstance(b, tuple) and b[0] == "w"
                      else b for b in (start, end))
    frame = "{} BETWEEN {} AND {}{}".format(
        mode, _bound(start, True), _bound(end, False),
        draw(st.sampled_from(["", " EXCLUDE CURRENT ROW", " EXCLUDE GROUP",
                              " EXCLUDE TIES"])))
    partition = "PARTITION BY g " if draw(st.booleans()) else ""
    calls = []
    for name in draw(st.lists(st.sampled_from(FUNCTIONS), min_size=1,
                              max_size=3)):
        if name.startswith(_FILTERABLE) and draw(st.booleans()):
            name += " FILTER (WHERE f)"
        calls.append(f"{name} OVER w AS c{len(calls)}")
    where = draw(st.sampled_from(["", " WHERE o >= 1"]))
    sql = (f"SELECT g, o, {', '.join(calls)} FROM t{where} "
           f"WINDOW w AS ({partition}ORDER BY o {frame})")
    small = draw(st.integers(2, 5))
    return rows, sql, sorted({0, 1, small, n, n + 5})


def _table(rows):
    return Table.from_dict({
        "g": (DataType.INT64, rows["g"]),
        "o": (DataType.INT64, rows["o"]),
        "x": (DataType.FLOAT64, rows["x"]),
        "y": (DataType.INT64, rows["y"]),
        "f": (DataType.BOOL, rows["f"]),
        "w": (DataType.INT64, rows["w"]),
    })


@generated
@given(statements())
def test_limit_returns_the_leading_rows(statement):
    rows, sql, limits = statement
    catalog = Catalog({"t": _table(rows)})
    with Session(catalog) as session:
        # Cold: the LIMITed statements build the trees of the
        # partitions they answer; the full statement builds the rest.
        cold = {k: _rows(session.execute(f"{sql} LIMIT {k}").table)
                for k in limits}
        full = _rows(session.execute(sql).table)
        warm = {k: _rows(session.execute(f"{sql} LIMIT {k}").table)
                for k in limits}
    for k in limits:
        assert cold[k] == full[:k], (sql, k)
        assert warm[k] == full[:k], (sql, k)
        # Cacheless, one shot.
        assert _rows(execute(f"{sql} LIMIT {k}", catalog)) == full[:k], \
            (sql, k)


# ----------------------------------------------------------------------
# the operator: any demand, UDAFs, the process pool
# ----------------------------------------------------------------------
PRODUCT = make_udaf("product", identity=1, lift=lambda v: v,
                    merge=lambda a, b: a * b)

OPERATOR_CALLS = [
    WindowCall("udaf", ("y",), udaf=PRODUCT),
    WindowCall("udaf", ("y",), distinct=True, udaf=PRODUCT),
    WindowCall("count", ("y",), distinct=True, filter_where="f"),
    WindowCall("dense_rank", order_by=(OrderItem("y"),)),
    WindowCall("lag", ("y",), offset=1, order_by=(OrderItem("x"),)),
]

OPERATOR_FRAMES = [
    FrameSpec.rows(preceding(3), following(1)),
    FrameSpec.range(preceding(2), current_row(), FrameExclusion.TIES),
    FrameSpec.groups(preceding(1), following(1), FrameExclusion.GROUP),
    FrameSpec.rows(following(2), preceding(1)),  # inverted: empty
]


def _answer(table, calls, spec, rows):
    """``calls`` evaluated at the demanded ``rows`` only."""
    operator = WindowOperator(table, rows=rows)
    for call in calls:
        operator.add(call, spec)
    return operator.run()


@generated
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    st.lists(st.none() | st.integers(0, 5), min_size=n, max_size=n),
    st.lists(st.sets(st.integers(0, max(n - 1, 0))), min_size=1,
             max_size=3),
    st.sampled_from(range(len(OPERATOR_FRAMES))))))
def test_operator_answers_any_demand(drawn):
    groups, ys, demands, frame_index = drawn
    n = len(groups)
    table = Table.from_dict({
        "g": (DataType.INT64, groups),
        "o": (DataType.INT64, [i % 4 for i in range(n)]),
        "x": (DataType.INT64, [(7 * i) % 5 for i in range(n)]),
        "y": (DataType.INT64, ys),
        "f": (DataType.BOOL, [i % 3 != 1 for i in range(n)]),
    })
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=OPERATOR_FRAMES[frame_index])
    full = window_query(table, OPERATOR_CALLS, spec)
    for demand in demands:
        rows = sorted(r for r in demand if r < n)
        got = _answer(table, OPERATOR_CALLS, spec, rows)
        assert got.to_rows() == full.take(rows).to_rows()


@generated
@given(st.integers(3, 25), st.integers(1, 25),
       st.sampled_from(range(len(OPERATOR_FRAMES))), st.randoms())
def test_one_large_and_many_single_row_partitions(large, singles,
                                                  frame_index, rnd):
    groups = [0] * large + list(range(1, singles + 1))
    rnd.shuffle(groups)
    n = len(groups)
    table = Table.from_dict({
        "g": (DataType.INT64, groups),
        "o": (DataType.INT64, [rnd.randrange(4) for _ in range(n)]),
        "x": (DataType.INT64, [rnd.randrange(5) for _ in range(n)]),
        "y": (DataType.INT64, [rnd.choice([None, 0, 1, 2, 3])
                               for _ in range(n)]),
        "f": (DataType.BOOL, [rnd.random() < 0.7 for _ in range(n)]),
    })
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=OPERATOR_FRAMES[frame_index])
    full = window_query(table, OPERATOR_CALLS, spec)
    # The demand mixes rows of the large partition and single rows.
    rows = sorted(rnd.sample(range(n), rnd.randint(0, n)))
    got = _answer(table, OPERATOR_CALLS, spec, rows)
    assert got.to_rows() == full.take(rows).to_rows()


# ----------------------------------------------------------------------
# the planner: where a demand is legal
# ----------------------------------------------------------------------
def _catalog(n=60):
    return Catalog({"t": Table.from_dict({
        "g": (DataType.INT64, [i % 4 for i in range(n)]),
        "o": (DataType.INT64, [(5 * i) % 11 for i in range(n)]),
        "y": (DataType.INT64, [(3 * i) % 7 for i in range(n)]),
    })})


def _windows(node):
    """Every WindowNode in a plan, nested statements included."""
    if isinstance(node, plan.StatementPlan):
        for cte in node.ctes:
            yield from _windows(cte.plan)
        yield from _windows(node.root)
        return
    if isinstance(node, plan.WindowNode):
        yield node
    if isinstance(node, plan.SubqueryNode):
        yield from _windows(node.plan)
    for child in node.inputs:
        yield from _windows(child)


def _cleared(node):
    """``node`` with every window's row demand cleared."""
    if isinstance(node, (plan.PlanNode, plan.StatementPlan)):
        changes = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, tuple) and value and \
                    isinstance(value[0], plan.CTENode):
                changes[f.name] = tuple(_cleared(v) for v in value)
            elif isinstance(value, (plan.PlanNode, plan.StatementPlan)):
                changes[f.name] = _cleared(value)
        if isinstance(node, plan.WindowNode):
            changes["rows"] = None
        return dataclasses.replace(node, **changes)
    return node


def _run(statement, catalog):
    ctx = Context(catalog, current_context())
    return _rows(_relation_to_table(run_statement(statement, ctx),
                                    statement.names))


_W = "count(DISTINCT y) OVER (PARTITION BY g ORDER BY o ROWS 2 PRECEDING)"

#: (statement, the demand the planner must set: None = none)
LEGALITY = [
    (f"SELECT o, {_W} AS c FROM t LIMIT 7", 7),
    (f"SELECT o, {_W} AS c FROM t WHERE y > 2 LIMIT 4", 4),
    (f"SELECT o, {_W} AS c FROM t", None),
    (f"SELECT DISTINCT {_W} AS c FROM t LIMIT 3", None),
    (f"SELECT o, {_W} AS c FROM t ORDER BY c LIMIT 5", None),
    (f"SELECT o FROM t ORDER BY {_W} LIMIT 5", None),
    ("SELECT g, count(*) FROM t GROUP BY g LIMIT 2", None),
    (f"SELECT * FROM (SELECT o, {_W} AS c FROM t) AS s LIMIT 6", None),
    (f"WITH s AS (SELECT o, {_W} AS c FROM t) SELECT * FROM s LIMIT 6",
     None),
]


@pytest.mark.parametrize("sql,demand", LEGALITY)
def test_demand_only_where_the_limit_keeps_input_positions(sql, demand):
    catalog = _catalog()
    statement = plan.plan_statement(parse(sql), catalog)
    windows = list(_windows(statement))
    assert [w.rows for w in windows if w.rows is not None] == \
        ([] if demand is None else [demand])
    # The demand changes what is computed, never the answer.
    assert _run(statement, catalog) == _run(_cleared(statement), catalog)
    assert _run(statement, catalog) == _rows(execute(sql, catalog))


def test_limit_zero_answers_nothing():
    catalog = _catalog()
    result = execute(f"SELECT o, {_W} AS c FROM t LIMIT 0", catalog)
    assert result.num_rows == 0
    assert result.schema.names() == ["o", "c"]


def test_probe_spans_count_the_rows_answered():
    with Session(_catalog()) as session:
        result = session.execute(f"SELECT o, {_W} AS c FROM t LIMIT 7",
                                 trace=True)
    probes = result.trace.find_all("probe")
    # Rows 0..6 sit in partitions g = 0..3; the group is one
    # evaluation, so one probe answers all seven.
    assert [p.attrs["rows"] for p in probes] == [7]
    group, = result.trace.find_all("window.group")
    assert group.attrs["answered"] == 7 and group.attrs["rows"] == 60


# ----------------------------------------------------------------------
# counting: one build per (group, call), whatever the demand
# ----------------------------------------------------------------------
def test_cold_limit_builds_each_structure_once():
    catalog = Catalog({"lineitem": lineitem(2000)})
    sql = ("SELECT l_orderkey, count(DISTINCT l_partkey) OVER w AS d, "
           "median(l_quantity) OVER w AS m FROM lineitem WINDOW w AS "
           "(PARTITION BY l_orderkey ORDER BY l_shipdate ROWS BETWEEN 3 "
           "PRECEDING AND CURRENT ROW) LIMIT 5")
    with Session(catalog) as session:
        limited = session.execute(sql, trace=True)
    calls = 2
    # The group's sort, then one structure per call, each spanning
    # every partition of the group.
    assert limited.stats.structure_builds == 1 + calls
    with Session(catalog) as session:
        full = session.execute(sql.replace(" LIMIT 5", ""), trace=True)
    assert full.stats.structure_builds == 1 + calls
    assert _rows(limited.table) == _rows(full.table)[:5]


def test_naive_rung_answers_the_same_rows():
    catalog = Catalog({"lineitem": lineitem(3000)})
    sql = ("SELECT l_orderkey, count(DISTINCT l_partkey) OVER w AS d, "
           "percentile_disc(0.5) WITHIN GROUP (ORDER BY l_quantity) OVER w "
           "AS p, dense_rank(ORDER BY l_suppkey) OVER w AS r FROM lineitem "
           "WINDOW w AS (ORDER BY l_shipdate ROWS BETWEEN 50 PRECEDING AND "
           "CURRENT ROW) LIMIT 10")
    tiny = SessionConfig(limits=ResourceLimits(max_structure_bytes=1024))
    with Session(catalog, config=tiny) as session:
        naive = session.execute(sql, trace=True)
    assert naive.stats.health.fallbacks > 0
    with Session(catalog) as session:
        tree = session.execute(sql)
    assert _rows(naive.table) == _rows(tree.table)
    assert len(_rows(tree.table)) == 10
