"""QueryResult: transparent table delegation plus execution record."""

import gc
import weakref

import pytest

from repro.sql import Catalog, QueryResult, Session, SessionConfig, execute
from repro.table import DataType, Table

SQL = ("SELECT g, sum(v) OVER (PARTITION BY g ORDER BY v "
       "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM t")


def _catalog():
    table = Table.from_dict({
        "g": (DataType.INT64, [1, 1, 2, 2, 2]),
        "v": (DataType.INT64, [5, 3, 8, 1, 4]),
    })
    return Catalog({"t": table})


@pytest.fixture
def session():
    with Session(_catalog(), config=SessionConfig()) as session:
        yield session


class TestDelegation:
    def test_execute_returns_a_query_result(self, session):
        result = session.execute(SQL)
        assert isinstance(result, QueryResult)

    def test_length_iteration_and_columns(self, session):
        result = session.execute(SQL)
        assert len(result) == 5
        assert result.num_rows == 5
        assert len(list(result.rows())) == 5
        assert result.column("s").to_list() == [8, 3, 12, 1, 5]
        assert result["s"].to_list() == [8, 3, 12, 1, 5]
        assert [f.name for f in result.schema.fields] == ["g", "s"]

    def test_equality_with_a_plain_table(self, session):
        result = session.execute(SQL)
        table = execute(SQL, _catalog())
        # Both directions: QueryResult.__eq__ and Table's reflected side.
        assert result == table
        assert table == result
        assert result == session.execute(SQL)
        assert (result != table) is False


class TestStats:
    def test_stats_record_the_execution(self, session):
        result = session.execute(SQL)
        stats = result.stats
        assert stats.outcome == "ok"
        assert stats.priority == "interactive"
        assert stats.elapsed_seconds >= 0.0
        assert stats.structure_builds >= 1
        assert stats.cache_misses >= 1

    def test_cache_reuse_shows_up_on_the_second_run(self, session):
        session.execute(SQL)
        warm = session.execute(SQL)
        assert warm.stats.structure_reuses >= 1
        assert warm.stats.structure_builds == 0

    def test_stats_render_and_to_dict(self, session):
        stats = session.execute(SQL).stats
        text = stats.render()
        assert "outcome=ok" in text
        assert "structures:" in text
        payload = stats.to_dict()
        assert payload["outcome"] == "ok"
        assert isinstance(payload["health"], list)


class TestTrace:
    def test_untraced_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with Session(_catalog()) as session:
            result = session.execute(SQL)
        assert result.trace is None
        assert result.render_trace() == ""
        assert result.trace_dict() is None

    def test_env_flag_enables_session_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with Session(_catalog()) as session:
            assert session.execute(SQL).trace is not None

    def test_per_query_trace_override(self, session):
        result = session.execute(SQL, trace=True)
        assert result.trace is not None
        names = {span.name for span in result.trace.walk()}
        assert {"query", "parse", "gateway.wait", "plan", "partition",
                "window.group", "probe"} <= names
        assert "probe" in result.render_trace()
        assert result.trace_dict()["name"] == "query"

    def test_session_wide_tracing(self):
        config = SessionConfig(trace=True)
        with Session(_catalog(), config=config) as session:
            assert session.execute(SQL).trace is not None
            # ... and the per-query override still wins.
            assert session.execute(SQL, trace=False).trace is None

    def test_result_explain_is_annotated_when_traced(self, session):
        result = session.execute(SQL, trace=True)
        text = result.explain()
        assert "Execution (actual)" in text
        assert "(actual: rows=5" in text

    def test_result_explain_without_trace_still_renders(self, session):
        text = session.execute(SQL).explain()
        assert "Project" in text
        assert "Execution (actual)" in text  # stats are always recorded

    def test_bare_result_has_no_explainer(self, session):
        from repro.sql.result import QueryResult as QR
        result = QR(session.execute(SQL).table,
                    session.execute(SQL).stats)
        assert "no plan captured" in result.explain()


class TestLifetime:
    """A result and its session own no reference cycle: with the cyclic
    collector off, dropping the last reference frees them at once."""

    @pytest.fixture(autouse=True)
    def _no_cyclic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("how", ["plain", "traced", "prepared"])
    def test_dropped_result_and_session_are_freed_at_once(self, how):
        session = Session(_catalog(), config=SessionConfig())
        if how == "prepared":
            prepared = session.prepare("SELECT g, v FROM t WHERE v > $1")
            result = prepared.execute([2])
            del prepared
        else:
            result = session.execute(SQL, trace=how == "traced")
        assert "Project" in result.explain()  # works while it lives
        dropped = weakref.ref(result)
        del result
        assert dropped() is None
        closed = weakref.ref(session)
        session.close()
        del session
        assert closed() is None

    @pytest.mark.parametrize("sql", [
        "SELECT g, v FROM t WHERE v > 2",
        "SELECT g, count(*) FROM t GROUP BY g HAVING count(*) > 1 "
        "ORDER BY g",
        "SELECT g, v FROM t WHERE v > $1 AND g IN "
        "(SELECT g FROM t WHERE v BETWEEN $1 AND 9)",
    ], ids=["plain", "grouped", "prepared"])
    def test_a_statement_leaves_no_cyclic_garbage(self, sql):
        """Planning, parameter typing and binding recurse through module
        functions: a nested function that recursed through its own name
        would be a function <-> cell cycle left by every statement."""
        with Session(_catalog(), config=SessionConfig()) as session:
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                if "$1" in sql:
                    session.prepare(sql).execute([2])
                else:
                    session.execute(sql)
                gc.collect()
                functions = [getattr(o, "__qualname__", o)
                             for o in gc.garbage
                             if type(o).__name__ == "function"]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
        assert functions == []


class TestModuleExecuteCompatibility:
    def test_module_execute_still_returns_a_table(self):
        out = execute(SQL, _catalog())
        assert isinstance(out, Table)


class TestWireSerialization:
    """QueryResult.to_dict() must survive a strict JSON round-trip."""

    def _wire_catalog(self):
        import datetime
        table = Table.from_dict({
            "g": (DataType.INT64, [1, 1, 2]),
            "f": (DataType.FLOAT64, [1.5, float("nan"), 2.25]),
            "s": (DataType.STRING, ["a", None, "c"]),
            "d": (DataType.DATE, [datetime.date(2024, 6, 1), None,
                                  datetime.date(2024, 6, 3)]),
            "b": (DataType.BOOL, [True, False, None]),
        })
        return Catalog({"w": table})

    def test_round_trip_is_lossless(self):
        import json
        with Session(self._wire_catalog()) as session:
            result = session.execute("SELECT g, f, s, d, b FROM w")
        payload = result.to_dict()
        # allow_nan=False: the encoder itself proves nothing non-JSON
        # (numpy scalars, dates, NaN) leaked through.
        text = json.dumps(payload, allow_nan=False)
        assert json.loads(text) == payload

    def test_value_conversion(self):
        with Session(self._wire_catalog()) as session:
            result = session.execute("SELECT g, f, s, d, b FROM w")
        payload = result.to_dict()
        assert payload["columns"] == ["g", "f", "s", "d", "b"]
        assert payload["types"] == ["int64", "float64", "string",
                                    "date", "bool"]
        rows = payload["rows"]
        assert rows[0] == [1, 1.5, "a", "2024-06-01", True]
        assert rows[1][1] is None  # NaN → null, not 'NaN'
        assert rows[1][2] is None and rows[1][3] is None
        assert all(type(r[0]) is int for r in rows)  # not np.int64

    def test_aggregate_outputs_are_plain_types(self):
        import json
        with Session(self._wire_catalog()) as session:
            result = session.execute(
                "SELECT g, sum(f) OVER (PARTITION BY g) AS t, "
                "count(s) OVER () AS c FROM w")
        text = json.dumps(result.to_dict(), allow_nan=False)
        assert json.loads(text)["row_count"] == 3

    def test_trace_included_and_excludable(self):
        import json
        with Session(self._wire_catalog()) as session:
            result = session.execute("SELECT g FROM w", trace=True)
        with_trace = result.to_dict()
        assert with_trace["trace"]["name"] == "query"
        json.dumps(with_trace, allow_nan=False)
        assert "trace" not in result.to_dict(include_trace=False)

    def test_untraced_trace_field_is_null(self):
        # Pinned off: REPRO_TRACE=1 (a CI leg) must not turn the
        # "untraced" case into a traced one.
        config = SessionConfig(trace=False)
        with Session(self._wire_catalog(), config=config) as session:
            result = session.execute("SELECT g FROM w")
        assert result.to_dict()["trace"] is None

    def test_stats_survive_round_trip(self):
        import json
        with Session(self._wire_catalog()) as session:
            result = session.execute(
                "SELECT g, sum(g) OVER (PARTITION BY g ORDER BY g "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s "
                "FROM w")
        stats = json.loads(json.dumps(result.to_dict(),
                                      allow_nan=False))["stats"]
        assert stats["outcome"] == "ok"
        assert stats["structure_builds"] >= 1
