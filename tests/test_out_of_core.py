"""Partition-at-a-time out-of-core window execution.

The contract: a window query that spills completed partitions through
the checksummed spill layer produces *bit-identical* results to the
in-memory path, under every rung of the degradation ladder — clean
spills, spill writes that keep failing (→ in-memory scatter), spilled
chunks that vanish or corrupt before reload (→ deterministic
re-evaluation) — and every degradation is visible in the query stats
and the governor's ledger.
"""

import pytest

from conftest import make_window_table
from repro.resilience import FaultInjector
from repro.sql import Catalog, Session, SessionConfig

#: No NULLs in ``o`` / ``y``: every result row is valid.
SQL = """
    select g, sum(o) over w as s, avg(y) over w as a
    from t
    window w as (partition by g order by o
                 rows between 7 preceding and 2 following)
"""

#: ``x`` has NULLs, and a frame of only NULLs sums to NULL.
SQL_NULLS = """
    select g, sum(x) over w as s
    from t
    window w as (partition by g order by o
                 rows between 7 preceding and current row)
"""


#: NULLs in every partition's result: the first four rows' frames are
#: too short to have a fifth value.
SQL_NTH = """
    select g, nth_value(x, 5) over w as v
    from t
    window w as (partition by g order by o
                 rows between 7 preceding and current row)
"""


def _catalog(n=200):
    return Catalog({"t": make_window_table(n)})


def _oracle(sql, n=200):
    session = Session(_catalog(n))
    try:
        return session.execute(sql).table
    finally:
        session.close()


def _ooc_config(**overrides):
    base = dict(memory_budget_bytes=1 << 20, out_of_core=True)
    base.update(overrides)
    return SessionConfig(**base)


class TestBitIdentity:
    def test_forced_out_of_core_matches_in_memory(self):
        session = Session(_catalog(), config=_ooc_config())
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.strategies == ["out-of-core"]
        assert result.stats.partition_spills > 0
        assert result.stats.partition_reloads == \
            result.stats.partition_spills
        assert result.stats.partition_spill_bytes > 0
        stats = session.memory.stats()
        assert stats.partition_spills == result.stats.partition_spills
        assert stats.partition_reloads == result.stats.partition_reloads
        session.close()

    def test_null_sums_stay_identical(self):
        session = Session(_catalog(), config=_ooc_config())
        result = session.execute(SQL_NULLS)
        assert result == _oracle(SQL_NULLS)
        session.close()

    def test_null_bearing_results_spill_every_partition(self):
        # A result's NULLs ride in the chunk as a validity mask; only
        # object-typed results stay in memory.
        session = Session(_catalog(), config=_ooc_config())
        result = session.execute(SQL_NTH)
        assert result == _oracle(SQL_NTH)
        assert None in result.table.column("v").to_list()
        assert result.stats.partition_spills == 3  # one per g
        assert result.stats.partition_reloads == 3
        session.close()

    def test_auto_mode_engages_under_tiny_budget(self):
        # No forcing: a 64 KiB budget is fully consumed by the query's
        # own reservation, so the group estimate exceeds the headroom.
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=64 << 10))
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.strategies == ["out-of-core"]
        assert result.stats.partition_spills > 0
        session.close()

    def test_auto_mode_stays_in_memory_with_headroom(self):
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=1 << 30))
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.partition_spills == 0
        assert "out-of-core" not in result.stats.strategies
        session.close()

    def test_out_of_core_false_never_spills(self):
        session = Session(_catalog(), config=SessionConfig(
            memory_budget_bytes=100 << 10, out_of_core=False))
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.partition_spills == 0
        session.close()


class TestDegradation:
    def test_spill_write_failure_falls_back_to_memory(self):
        faults = FaultInjector().plan("partition.spill", times=-1)
        session = Session(_catalog(),
                          config=_ooc_config(faults=faults))
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.partition_spills == 0
        assert result.stats.health.fallbacks >= 1
        assert faults.fired("partition.spill") > 0
        session.close()

    def test_transient_spill_write_failure_retries(self):
        faults = FaultInjector().plan("partition.spill", times=1)
        session = Session(_catalog(),
                          config=_ooc_config(faults=faults))
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.partition_spills > 0
        assert result.stats.health.retries >= 1
        assert result.stats.health.fallbacks == 0
        session.close()

    def test_reload_failure_reevaluates_partition(self):
        faults = FaultInjector().plan("partition.reload", times=-1)
        session = Session(_catalog(),
                          config=_ooc_config(faults=faults))
        result = session.execute(SQL)
        assert result == _oracle(SQL)
        assert result.stats.partition_spills > 0
        assert result.stats.partition_reloads == 0
        assert result.stats.health.corruptions == \
            result.stats.partition_spills
        session.close()

    def test_stats_render_shows_out_of_core_line(self):
        session = Session(_catalog(), config=_ooc_config())
        result = session.execute(SQL)
        assert "out-of-core: partition_spills=" in result.stats.render()
        assert "Memory" in result.explain()
        session.close()

    def test_spill_dir_is_clean_after_query(self, tmp_path):
        session = Session(_catalog(), config=_ooc_config(
            spill_dir=str(tmp_path)))
        result = session.execute(SQL)
        assert result.stats.partition_spills > 0
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(".npz")]
        assert leftovers == []
        session.close()


def test_repeated_out_of_core_queries_are_stable():
    session = Session(_catalog(), config=_ooc_config())
    oracle = _oracle(SQL)
    for _ in range(3):
        assert session.execute(SQL) == oracle
    assert session.memory.stats().partition_spills > 0
    session.close()
