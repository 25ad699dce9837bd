"""EXPLAIN ANALYZE: annotated plans, golden rendering, determinism."""

import os


from repro.resilience.context import SimulatedClock
from repro.sql import Catalog, Session, SessionConfig
from repro.table import DataType, Table

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "explain_analyze.txt")

SQL = ("SELECT g, percentile_disc(0.5) WITHIN GROUP (ORDER BY v) "
       "OVER (PARTITION BY g) AS med, "
       "count(DISTINCT v) OVER (PARTITION BY g) AS c FROM t")


def _catalog():
    table = Table.from_dict({
        "g": (DataType.INT64, [1, 1, 2, 2, 2, 1]),
        "v": (DataType.INT64, [5, 3, 8, 1, 4, 5]),
    })
    return Catalog({"t": table})


def _session():
    # A simulated clock renders every duration as 0.000ms, which makes
    # the ANALYZE rendering byte-stable. No budget: a budgeted session
    # adds a Memory section whose ledger holds the plan cache's bytes,
    # and those come from sys.getsizeof, which differs across Python
    # versions.
    config = SessionConfig(clock=SimulatedClock())
    return Session(_catalog(), config=config)


class TestExplainAnalyze:
    def test_matches_the_golden_file(self, monkeypatch):
        # The memory-soak CI leg budgets every session through the
        # environment, which adds a Memory section to EXPLAIN; the
        # golden file captures the unbudgeted rendering, so pin the
        # env like the other byte-stability knobs above.
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        with _session() as session:
            text = session.explain(SQL, analyze=True)
        with open(GOLDEN) as handle:
            assert text == handle.read()

    def test_rendering_is_deterministic(self):
        with _session() as session:
            first = session.explain(SQL, analyze=True)
        with _session() as session:
            second = session.explain(SQL, analyze=True)
        assert first == second

    def test_annotates_actual_rows_and_phases(self):
        with Session(_catalog()) as session:
            text = session.explain(SQL, analyze=True)
        assert "(actual: rows=6" in text          # Project
        assert "groups=1" in text                  # Window
        assert "Scan t (actual: rows=6)" in text   # Scan
        assert "Execution (actual)" in text
        assert "phases:" in text
        for phase in ("parse=", "plan=", "partition=", "window.group=",
                      "probe=", "gateway.wait="):
            assert phase in text

    def test_structure_builds_then_reuses(self):
        with Session(_catalog()) as session:
            cold = session.explain(SQL, analyze=True)
            warm = session.explain(SQL, analyze=True)
        assert "structure.build" in cold
        # 1 group: its sort, then 2 structure kinds over it.
        assert "builds=3, reuses=0" in cold
        assert "builds=0, reuses=3" in warm
        assert "structure.reuse x3" in warm

    def test_window_reports_the_rows_answered(self):
        with Session(_catalog()) as session:
            limited = session.explain(SQL + " LIMIT 4", analyze=True)
            full = session.explain(SQL, analyze=True)
        assert ("[first 4 rows] (actual: groups=1, answered=4,"
                in _plan_line(limited, "Window"))
        assert "(actual: groups=1, answered=6," in _plan_line(full, "Window")

    def test_plain_explain_has_no_actuals(self):
        with Session(_catalog()) as session:
            text = session.explain(SQL)
        assert "actual" not in text

    def test_structure_builds_name_their_layout(self):
        """DISTINCT and DENSE_RANK indexes name the layout they built:
        for DENSE_RANK and DISTINCT sums the presence table over at most
        64 integer classes, the tree over more (or over floats); for
        ``count(DISTINCT)`` always the tree."""
        n = 70
        table = Table.from_dict({
            "o": (DataType.INT64, list(range(n))),
            "few": (DataType.INT64, [i % 3 for i in range(n)]),
            "many": (DataType.INT64, list(range(n))),
            "real": (DataType.FLOAT64, [i % 3 / 2 for i in range(n)]),
        })
        over = "OVER (ORDER BY o ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)"
        cases = {
            f"count(DISTINCT few) {over}": ("mst:distinct", "tree"),
            f"sum(DISTINCT few) {over}": ("mst:distinct:sum", "table"),
            f"sum(DISTINCT many) {over}": ("mst:distinct:sum", "tree"),
            f"avg(DISTINCT real) {over}": ("mst:distinct:sum", "tree"),
            f"dense_rank(ORDER BY few) {over}": ("rangetree:dense", "table"),
            f"dense_rank(ORDER BY many) {over}": ("rangetree:dense", "tree"),
        }
        for call, (kind, layout) in cases.items():
            with Session(Catalog({"t": table})) as session:
                text = session.explain(f"SELECT {call} FROM t", analyze=True)
            (line,) = [line for line in text.splitlines()
                       if f"structure.build {kind} " in line]
            assert f" layout={layout} " in line, (call, line)

    def test_analyze_executes_through_the_gateway(self):
        with Session(_catalog()) as session:
            before = session.gateway.stats().admitted
            session.explain(SQL, analyze=True)
            assert session.gateway.stats().admitted == before + 1


def _join_catalog():
    lineitem = Table.from_dict({
        "l_orderkey": (DataType.INT64, [1, 2, 3, 4]),
        "l_quantity": (DataType.INT64, [10, 10, 10, 10]),
    })
    big = Table.from_dict({
        "k": (DataType.INT64, [1, 1, 2, 3, 3, 3]),
        "q": (DataType.INT64, [5, 20, 20, 20, 20, 5]),
    })
    return Catalog({"lineitem": lineitem, "big": big})


def _plan_line(text, prefix):
    (line,) = [line.strip() for line in text.splitlines()
               if line.strip().startswith(prefix)]
    return line


class TestPerNodeActuals:
    """Each plan node is annotated from its own span — regression tests
    for actuals that used to be paired with plan lines by text prefix
    and trace order."""

    def test_each_hash_join_reports_its_own_build_and_probe(self):
        sql = ("SELECT l.l_orderkey FROM lineitem l "
               "JOIN big ON l.l_orderkey = big.k AND l.l_quantity < big.q "
               "JOIN big b2 ON l.l_orderkey = b2.k")
        with Session(_join_catalog()) as session:
            result = session.execute(sql, trace=True)
        assert len(result) == 9
        text = result.explain()
        # The inner join runs first but renders second: 4 residual-
        # filtered matches feed the outer join, which emits 9.
        inner = _plan_line(text, "HashJoin (inner, keys: l.l_orderkey = big.k")
        outer = _plan_line(text, "HashJoin (inner, keys: l.l_orderkey = b2.k")
        assert "build_rows=6" in inner and "matches=4," in inner
        assert "build_rows=6" in outer and "matches=9," in outer
        probes = {span.attrs["matches"]: span.attrs["rows"]
                  for span in result.trace.find_all("join.probe")}
        assert probes == {4: 4, 9: 4}

    def test_query_total_lands_on_the_outer_project(self):
        sql = ("WITH c AS (SELECT k FROM big WHERE q > 5) "
               "SELECT l.l_orderkey FROM lineitem l "
               "JOIN c ON l.l_orderkey = c.k WHERE l.l_orderkey < 3")
        with Session(_join_catalog()) as session:
            text = session.explain(sql, analyze=True)
        assert "CTE c (actual: rows=4, time=" in text
        inner = _plan_line(text, "Project (k)")
        outer = _plan_line(text, "Project (l.l_orderkey)")
        assert "(actual: rows=4, time=" in inner and "total=" not in inner
        assert "(actual: rows=2, total=" in outer
        assert text.index(inner) < text.index(outer)

    def test_every_node_kind_is_annotated(self):
        sql = ("SELECT DISTINCT k, count(*) AS n FROM big WHERE q > 5 "
               "GROUP BY k HAVING count(*) > 0 ORDER BY k LIMIT 2")
        with Session(_join_catalog()) as session:
            text = session.explain(sql, analyze=True)
        plan_lines = text[:text.index("PlanCache")].splitlines()
        assert [line.split("(")[0].strip() for line in plan_lines] == [
            "Limit", "Sort", "Distinct", "Project", "Aggregate", "Having",
            "Filter", "Scan big"]
        for line in plan_lines:
            assert ("(actual: rows=" in line) == ("Having" not in line), line


class TestTraceDeterminism:
    def test_results_identical_with_tracing_on_and_off(self):
        """Tracing must be observation only: bit-identical results."""
        with Session(_catalog()) as session:
            plain = session.execute(SQL, trace=False)
            traced = session.execute(SQL, trace=True)
        assert traced.trace is not None
        assert plain.trace is None
        for name in ("g", "med", "c"):
            assert (traced.column(name).to_list()
                    == plain.column(name).to_list())

    def test_traced_rerun_is_stable(self):
        with Session(_catalog()) as session:
            first = session.execute(SQL, trace=True)
            second = session.execute(SQL, trace=True)
        for name in ("g", "med", "c"):
            assert (first.column(name).to_list()
                    == second.column(name).to_list())
