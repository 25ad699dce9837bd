"""Plan cache: fingerprinting, LRU accounting, Session integration."""

import json

import pytest

from repro.resilience.memory import MemoryGovernor
from repro.sql import Catalog, Session, SessionConfig
from repro.sql.parser import parse
from repro.sql.plancache import (
    PLAN_CACHE_CAP_BYTES,
    PlanCache,
    fingerprint_sql,
    normalize_sql,
    plan_bytes,
)
from repro.table import DataType, Table

SQL = ("SELECT g, sum(v) OVER (PARTITION BY g ORDER BY v "
       "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM t")


def _catalog():
    table = Table.from_dict({
        "g": (DataType.INT64, [1, 1, 2, 2, 2]),
        "v": (DataType.INT64, [5, 3, 8, 1, 4]),
    })
    return Catalog({"t": table})


class TestNormalization:
    def test_whitespace_collapses(self):
        assert (normalize_sql("SELECT  a\n FROM   t;")
                == normalize_sql("SELECT a FROM t"))

    def test_fingerprints_match_for_equivalent_text(self):
        a = fingerprint_sql("SELECT a FROM t")
        b = fingerprint_sql("  SELECT a\tFROM t ;")
        assert a == b

    def test_case_is_significant(self):
        # Case folding would conflate string literals; keys stay
        # case-sensitive and we accept the conservative misses.
        assert (fingerprint_sql("SELECT 'x' FROM t")
                != fingerprint_sql("SELECT 'X' FROM t"))

    def test_different_statements_differ(self):
        assert (fingerprint_sql("SELECT a FROM t")
                != fingerprint_sql("SELECT b FROM t"))

    def test_line_comments_are_stripped(self):
        assert (fingerprint_sql("SELECT a -- pick a\nFROM t")
                == fingerprint_sql("SELECT a FROM t"))

    def test_block_comments_are_stripped(self):
        assert (fingerprint_sql("SELECT /* v2 of the\nreport */ a FROM t")
                == fingerprint_sql("SELECT a FROM t"))

    def test_comment_markers_inside_strings_survive(self):
        # '--' and '/*' inside a string literal are data, not comments.
        sql = "SELECT a FROM t WHERE b = 'x -- /* y'"
        assert normalize_sql(sql).endswith("'x -- /* y'")
        assert (fingerprint_sql(sql)
                != fingerprint_sql("SELECT a FROM t WHERE b = 'x"))

    def test_comment_replaced_by_separator_not_deleted(self):
        # Stripping must not glue adjacent tokens together.
        assert (fingerprint_sql("SELECT a/* gap */FROM t")
                == fingerprint_sql("SELECT a FROM t"))

    @pytest.mark.parametrize("sql, digest", [
        ("SELECT 1", "e004ebd5b5532a4b85984a62f8ad48a81aa3460c1ca07701f3861"
                     "35d72cdecf5"),
        ("SELECT a FROM t -- trailing\n", "dbfc8aa9ef14b12f5b3eff811061521e"
                                          "9b550151246a54185b6ad7033500c670"),
        ("SELECT /* c */ a FROM t;", "dbfc8aa9ef14b12f5b3eff811061521e9b550"
                                     "151246a54185b6ad7033500c670"),
        ("SELECT '--not a comment' FROM t", "5efa433f06485afd085656a9ed6958"
                                            "185787c9e88f608de5dac764147894"
                                            "f05d"),
        ("  SELECT\n a,\tb FROM t ; ", "6cc5166de9f24b20eee47af6877f6bc19082"
                                       "ef12c8badae6368415922a9ae52a"),
        ("SELECT 'a/*b' -- x\n FROM t", "3afd32e90d88f451dd377b9ab44cea12ff5"
                                        "727ac7d43fc6bfe6723488699f527"),
    ])
    def test_fingerprints_are_pinned(self, sql, digest):
        # Plan-cache keys must not move: texts with and without comment
        # markers (the marker-free ones skip the comment scanner).
        assert fingerprint_sql(sql) == digest


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        first, hit1 = cache.get_or_parse(SQL, parse)
        second, hit2 = cache.get_or_parse("  " + SQL + " ;", parse)
        assert (hit1, hit2) == (False, True)
        assert second is first
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_ratio == 0.5
        assert stats.bytes_in_use > 0

    def test_parse_called_once_per_fingerprint(self):
        calls = []

        def counting_parse(sql):
            calls.append(sql)
            return parse(sql)

        cache = PlanCache()
        for _ in range(5):
            cache.get_or_parse(SQL, counting_parse)
        assert len(calls) == 1

    def test_lru_eviction_under_byte_budget(self):
        statements = [f"SELECT g, v + {i} AS x FROM t" for i in range(4)]
        probe = plan_bytes(parse(statements[0]))
        governor = MemoryGovernor(int(probe * 2.5))
        cache = PlanCache(governor)
        for sql in statements:
            cache.get_or_parse(sql, parse)
        stats = cache.stats()
        assert stats.evictions > 0
        assert stats.bytes_in_use <= governor.budget
        assert stats.bytes_in_use == governor.held("plan_cache")
        assert len(cache) == stats.entries < len(statements)
        # Least-recently-used entries left first: the newest survives.
        _, hit = cache.get_or_parse(statements[-1], parse)
        assert hit

    def test_hit_refreshes_recency(self):
        probe = plan_bytes(parse("SELECT g FROM t"))
        cache = PlanCache(MemoryGovernor(int(probe * 2.5)))
        cache.get_or_parse("SELECT g FROM t", parse)
        cache.get_or_parse("SELECT v FROM t", parse)
        cache.get_or_parse("SELECT g FROM t", parse)  # refresh
        cache.get_or_parse("SELECT g, v FROM t", parse)  # evicts v
        _, hit = cache.get_or_parse("SELECT g FROM t", parse)
        assert hit

    def test_oversize_plan_is_not_stored(self):
        cache = PlanCache(MemoryGovernor(16))
        _, hit1 = cache.get_or_parse(SQL, parse)
        _, hit2 = cache.get_or_parse(SQL, parse)
        assert (hit1, hit2) == (False, False)
        assert len(cache) == 0

    def test_budget_zero_disables(self):
        cache = PlanCache(MemoryGovernor(0))
        _, hit = cache.get_or_parse(SQL, parse)
        _, hit2 = cache.get_or_parse(SQL, parse)
        assert not hit and not hit2
        assert len(cache) == 0

    def test_invalidate_clears_entries_keeps_counters(self):
        cache = PlanCache()
        cache.get_or_parse(SQL, parse)
        cache.get_or_parse(SQL, parse)
        cache.invalidate()
        stats = cache.stats()
        assert stats.entries == 0 and stats.bytes_in_use == 0
        assert stats.hits == 1 and stats.misses == 1

    def test_stats_render_and_to_dict(self):
        cache = PlanCache()
        cache.get_or_parse(SQL, parse)
        stats = cache.stats()
        assert any("hits" in line for line in stats.render())
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["misses"] == 1
        assert 0 < payload["bytes_in_use"] <= PLAN_CACHE_CAP_BYTES

    def test_cap_binds_without_a_budget(self, monkeypatch):
        # An unbudgeted ledger still holds at most the cap of plans.
        statements = [f"SELECT g, v + {i} AS x FROM t" for i in range(4)]
        probe = plan_bytes(parse(statements[0]))
        monkeypatch.setattr("repro.sql.plancache.PLAN_CACHE_CAP_BYTES",
                            int(probe * 2.5))
        governor = MemoryGovernor()
        cache = PlanCache(governor)
        for sql in statements:
            cache.get_or_parse(sql, parse)
        stats = cache.stats()
        assert stats.evictions > 0 and len(cache) < len(statements)
        assert stats.bytes_in_use == governor.held("plan_cache")
        assert stats.bytes_in_use <= int(probe * 2.5)


class TestSessionIntegration:
    def test_repeated_execute_hits_the_cache(self):
        with Session(_catalog()) as session:
            first = session.execute(SQL)
            second = session.execute(SQL + "  ")
            assert first == second
            stats = session.plan_cache.stats()
            assert stats.hits >= 1 and stats.misses >= 1

    def test_metrics_expose_plan_cache_counters(self):
        with Session(_catalog()) as session:
            session.execute(SQL)
            session.execute(SQL)
            text = session.metrics_text()
            assert "repro_plan_cache_hits_total 1" in text
            assert "repro_plan_cache_misses_total 1" in text
            assert "repro_plan_cache_entries 1" in text

    def test_explain_renders_plan_cache_section(self):
        with Session(_catalog()) as session:
            session.execute(SQL)
            plan = session.explain(SQL)
            assert "PlanCache" in plan

    def test_tiny_memory_budget_keeps_no_plans_in_session(self):
        # A budget smaller than one plan stores none: every execution
        # parses again.
        config = SessionConfig(memory_budget_bytes=16)
        with Session(_catalog(), config=config) as session:
            session.execute(SQL)
            session.execute(SQL)
            stats = session.plan_cache.stats()
            assert stats.hits == 0
            assert stats.entries == 0

    def test_traced_query_annotates_cache_outcome(self):
        with Session(_catalog()) as session:
            session.execute(SQL)
            result = session.execute(SQL, trace=True)

            def find(node, name):
                if node["name"] == name:
                    return node
                for child in node.get("children", ()):
                    got = find(child, name)
                    if got is not None:
                        return got
                return None

            span = find(result.trace_dict(), "parse")
            assert span is not None
            assert span["attrs"]["plan_cache"] == "hit"

    def test_prepared_statement_reexecution_hits(self):
        """The prepared-statement contract: one parse, N cache hits.

        ``prepare`` parses (a miss); every subsequent ``execute`` binds
        parameters into the *cached* template, so re-executions are all
        hits and the hit rate climbs toward 1.
        """
        table = Table.from_dict({
            "g": (DataType.INT64, [1, 1, 2, 2, 2]),
            "v": (DataType.INT64, [5, 3, 8, 1, 4]),
        })
        with Session(Catalog({"t": table})) as session:
            stmt = session.prepare("SELECT g, v FROM t WHERE v > $1")
            for threshold in (1, 2, 3, 4, 5, 6):
                stmt.execute([threshold])
            stats = session.plan_cache.stats()
            assert stats.misses == 1
            assert stats.hits == 6
            assert stats.hit_ratio == pytest.approx(6 / 7)
            # A second handle for the same text never re-parses.
            session.prepare("SELECT g, v FROM t WHERE v > $1").execute([0])
            stats = session.plan_cache.stats()
            assert stats.misses == 1 and stats.hits == 8

    def test_config_rejects_negative_budget(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SessionConfig(memory_budget_bytes=-1)
