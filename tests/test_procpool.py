"""Chaos suite for the supervised process pool (crash isolation).

The acceptance property of the process executor: you can SIGKILL a
worker mid-query and the query still returns the bit-identical answer
— once through morsel retry, twice through quarantine plus the
degraded in-thread path — with the whole episode visible in health
counters and worker stats, surfaced only as typed errors, and with
zero leaked shared-memory segments and zero leaked cache pins.

Worker kills are staged deterministically through the
``REPRO_PROC_CHAOS`` hook (O_EXCL marker files bound the kill count
exactly); supervision faults are injected at the registered
``worker.spawn`` / ``worker.heartbeat`` / ``worker.retry`` /
``shm.attach`` sites.
"""

import numpy as np
import pytest

from repro import Catalog, Session
from repro.cache.store import StructureCache
from repro.errors import WorkerPoolError
from repro.parallel.procpool import _resolve_start_method
from repro.parallel.procworker import CHAOS_ENV
from repro.parallel.scheduler import SERIAL, WindowScheduler
from repro.parallel.shm import owned_segments
from repro.resilience import ExecutionContext, FaultInjector, activate
from repro.resilience.supervisor import SupervisorPolicy
from repro.sql import SessionConfig
from repro.table import DataType, Table
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    preceding,
    window_query,
)
from repro.window.frame import OrderItem

SPEC = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                  frame=FrameSpec.rows(preceding(6), current_row()))
CALLS = [
    WindowCall("count", ["x"], distinct=True),
    WindowCall("median", ["y"]),
    WindowCall("rank", order_by=(OrderItem("y"),)),
    WindowCall("sum", ["x"]),
]


def make_table(n_rows: int, n_partitions: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict({
        "g": (DataType.INT64,
              [int(v) for v in rng.integers(0, n_partitions, n_rows)]),
        "o": (DataType.INT64,
              [int(v) for v in rng.integers(0, 50, n_rows)]),
        "x": (DataType.INT64,
              [int(v) if rng.random() > 0.1 else None
               for v in rng.integers(0, 12, n_rows)]),
        "y": (DataType.FLOAT64,
              [float(v) for v in rng.normal(size=n_rows)]),
    }, name="t")


def forced(workers: int, **overrides) -> WindowScheduler:
    options = dict(workers=workers, min_parallel_ops=0.0,
                   min_intra_rows=64, task_size=256)
    options.update(overrides)
    return WindowScheduler(**options)


def run(table, spec=SPEC, scheduler=None, cache=None, ctx=None):
    if ctx is None:
        ctx = ExecutionContext()
    with activate(ctx):
        result = window_query(table, CALLS, spec, cache=cache,
                              parallel=scheduler)
    return [result.columns[i].to_list() for i in range(-len(CALLS), 0)]


# ----------------------------------------------------------------------
# healthy path: process == serial, bit for bit; nothing leaks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_rows,n_partitions",
                         [(1200, 1), (1200, 8), (1200, 300)])
def test_process_executor_matches_serial_exactly(n_rows, n_partitions):
    table = make_table(n_rows, n_partitions, seed=n_partitions)
    want = run(table)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler) == want
        stats = scheduler.stats()
    assert stats.executor == "process"
    assert stats.process_groups >= 1
    assert stats.degraded_groups == 0
    assert owned_segments() == []


def test_null_heavy_and_string_adjacent_results_roundtrip():
    # Lists with NULLs fail the int64/float64 fast path: they must come
    # back through the pickled ack, still bit-identical.
    table = make_table(900, 40, seed=5)
    want = run(table)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler) == want


def test_non_numeric_column_fans_probes_and_matches():
    # A string column never ships: the probe fan shares only the tree,
    # here built over the strings' previous-occurrence ints, so a
    # string argument fans like a numeric one and stays bit-identical.
    rng = np.random.default_rng(11)
    n = 800
    table = Table.from_dict({
        "g": (DataType.INT64, [int(v) for v in rng.integers(0, 20, n)]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 50, n)]),
        "s": (DataType.STRING,
              [str(v) for v in rng.integers(0, 9, n)]),
    }, name="t")
    calls = [WindowCall("count", ["s"], distinct=True)]
    ctx = ExecutionContext()
    with activate(ctx):
        serial = window_query(table, calls, SPEC)
        with forced(2) as scheduler:
            got = window_query(table, calls, SPEC, parallel=scheduler)
            decision = scheduler.stats().decisions[-1]
            assert scheduler.stats().degraded_groups == 0
            assert scheduler.stats().process_groups == 1
    assert got.columns[-1].to_list() == serial.columns[-1].to_list()
    assert decision.executor == "process"
    assert ctx.health.fallbacks == 0


# ----------------------------------------------------------------------
# worker kills (the tentpole property)
# ----------------------------------------------------------------------
def test_sigkill_once_retries_and_matches(tmp_path, monkeypatch):
    table = make_table(1500, 60, seed=21)
    want = run(table)
    monkeypatch.setenv(CHAOS_ENV, f"kill:7:1:{tmp_path}")
    ctx = ExecutionContext()
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        worker_stats = scheduler.worker_stats()
    assert worker_stats["crashes"] == 1
    assert worker_stats["retries"] == 1
    assert worker_stats["restarts"] == 1
    assert worker_stats["quarantined"] == 0
    assert ctx.health.worker_crashes == 1
    assert ctx.health.morsel_retries == 1
    assert owned_segments() == []


def test_sigkill_twice_quarantines_and_degrades_that_morsel(
        tmp_path, monkeypatch):
    table = make_table(1500, 60, seed=22)
    want = run(table)
    monkeypatch.setenv(CHAOS_ENV, f"kill:7:2:{tmp_path}")
    ctx = ExecutionContext()
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        worker_stats = scheduler.worker_stats()
    # Two kills: one retry, then quarantine -> in-thread re-run of just
    # that morsel. The group still counts as a process group.
    assert worker_stats["crashes"] == 2
    assert worker_stats["quarantined"] == 1
    assert ctx.health.morsels_quarantined == 1
    assert scheduler is not None and owned_segments() == []


def test_killed_worker_leaves_no_cache_pins(tmp_path, monkeypatch):
    table = make_table(1200, 50, seed=23)
    want = run(table)
    monkeypatch.setenv(CHAOS_ENV, f"kill:3:2:{tmp_path}")
    with StructureCache() as cache:
        with forced(2) as scheduler:
            assert run(table, scheduler=scheduler, cache=cache) == want
        assert cache.stats().pinned_entries == 0
    assert owned_segments() == []


# ----------------------------------------------------------------------
# degradation: process -> serial
# ----------------------------------------------------------------------
def test_spawn_storm_breaks_pool_and_degrades_to_serial():
    table = make_table(1200, 60, seed=31)
    want = run(table)
    faults = FaultInjector().plan("worker.spawn", times=-1)
    ctx = ExecutionContext(faults=faults)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        stats = scheduler.stats()
        worker_stats = scheduler.worker_stats()
        # The session keeps running, but this scheduler never tries the
        # process path again.
        assert not scheduler.process_enabled
    assert stats.degraded_groups == 1
    assert worker_stats["process_broken"]
    assert any("process pool broken" in entry
               for entry in ctx.health.downgrades)
    assert ctx.health.fallbacks >= 1


def test_shm_failure_degrades_group_to_serial():
    table = make_table(1200, 60, seed=32)
    want = run(table)
    # The first segment a probe-fan group creates maps a tree's levels
    # into the arena: failing it sends the group to the serial kernels.
    faults = FaultInjector().plan("shm.attach", times=1)
    ctx = ExecutionContext(faults=faults)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        assert scheduler.stats().degraded_groups == 1
        # One bad allocation is not a broken pool: the next query may
        # try the process path again.
        assert scheduler.process_enabled
        arena = scheduler.arena_stats()
    assert faults.fired("shm.attach") == 1
    assert arena.misses == 0  # the failed levels entry was never kept
    assert any("shared-memory setup failed" in entry
               for entry in ctx.health.downgrades)
    assert owned_segments() == []


def test_heartbeat_loss_is_treated_as_a_crash_and_retried(
        tmp_path, monkeypatch):
    table = make_table(1200, 60, seed=33)
    want = run(table)
    faults = FaultInjector().plan("worker.heartbeat", times=1)
    ctx = ExecutionContext(faults=faults)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        worker_stats = scheduler.worker_stats()
    assert worker_stats["crashes"] >= 1
    assert ctx.health.worker_crashes >= 1


def test_retry_fault_quarantines_instead(tmp_path, monkeypatch):
    table = make_table(1200, 60, seed=34)
    want = run(table)
    monkeypatch.setenv(CHAOS_ENV, f"kill:7:1:{tmp_path}")
    faults = FaultInjector().plan("worker.retry", times=-1)
    ctx = ExecutionContext(faults=faults)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        worker_stats = scheduler.worker_stats()
    # The single kill would normally retry; the injected retry fault
    # forces the quarantine path instead — result still identical.
    assert worker_stats["retries"] == 0
    assert worker_stats["quarantined"] == 1


def test_closed_pool_raises_typed_worker_pool_error():
    from repro.parallel.procpool import ProcessPool

    pool = ProcessPool(1, policy=SupervisorPolicy(max_restarts=0))
    pool.close()
    with pytest.raises(WorkerPoolError):
        pool.run_group(None, [])
    pool.close()  # idempotent


# ----------------------------------------------------------------------
# configuration: workers is the only parallelism setting
# ----------------------------------------------------------------------
def test_resolve_start_method_fallbacks(monkeypatch):
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    assert _resolve_start_method("nonsense") in ("fork", "spawn")
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert _resolve_start_method(None) == "spawn"


def test_executor_option_is_gone_and_stale_env_is_ignored(monkeypatch):
    with pytest.raises(TypeError):
        SessionConfig(executor="process")
    with pytest.raises(TypeError):
        WindowScheduler(workers=2, executor="thread")
    monkeypatch.setenv("REPRO_EXECUTOR", "thread")
    config = SessionConfig.from_env(env={"REPRO_EXECUTOR": "thread",
                                         "REPRO_WORKERS": "2"})
    assert config.workers == 2
    with WindowScheduler(workers=2) as scheduler:
        assert scheduler.executor == "process"
    with WindowScheduler(workers=1) as scheduler:
        assert scheduler.executor == SERIAL


# ----------------------------------------------------------------------
# session integration: SQL, EXPLAIN, health
# ----------------------------------------------------------------------
SQL = """
select g, count(distinct x) over w as v, median(y) over w as m
from t
window w as (partition by g order by o
             rows between 6 preceding and current row)
"""


def test_session_process_executor_end_to_end():
    catalog = Catalog({"t": make_table(1500, 60, seed=51)})
    with Session(catalog) as serial_session:
        want = serial_session.execute(SQL)
    config = SessionConfig(workers=2)
    with Session(catalog, config=config) as session:
        session.parallel = forced(2)
        try:
            got = session.execute(SQL)
            for name in ("v", "m"):
                assert got.column(name).to_list() == \
                    want.column(name).to_list()
            text = session.explain(SQL, analyze=True)
            worker_stats = session.parallel.worker_stats()
        finally:
            session.parallel.close()
    assert "executor=process" in text
    assert "worker pool:" in text
    assert worker_stats["executor"] == "process"
    assert worker_stats["live"] == 2
    assert len(worker_stats["pids"]) == 2
    assert owned_segments() == []


# ----------------------------------------------------------------------
# table arena: warm repeats, trace discipline, read-only views
# ----------------------------------------------------------------------
FAMILY_CALLS = CALLS + [WindowCall("lead", ("y",)),
                        WindowCall("first_value", ("x",))]


def run_calls(table, calls, scheduler=None, cache=None, ctx=None):
    if ctx is None:
        ctx = ExecutionContext()
    with activate(ctx):
        result = window_query(table, calls, SPEC, cache=cache,
                              parallel=scheduler)
    return [result.columns[i].to_list() for i in range(-len(calls), 0)]


def test_warm_repeat_bit_identical_across_evaluator_families():
    # Five evaluator families — count distinct, median (select probes),
    # rank, sum (aggregate probes), lead/first_value (navigation) —
    # must match serial on the cold run AND on warm runs that reuse
    # the arena-resident permutation and (cached) trees' levels.
    from repro.parallel.shm import arena_segments

    table = make_table(1500, 8, seed=61)
    want = run_calls(table, FAMILY_CALLS)
    # Under REPRO_WORKERS=2 the serial-baseline queries above go
    # through the (never-closed) default scheduler, whose session arena
    # legitimately persists — judge this scheduler's hygiene relative
    # to that ambient set.
    ambient = set(arena_segments())
    with StructureCache() as cache, forced(2) as scheduler:
        for _ in range(3):
            assert run_calls(table, FAMILY_CALLS, scheduler=scheduler,
                             cache=cache) == want
        arena = scheduler.arena_stats()
        assert scheduler.stats().degraded_groups == 0
    assert arena is not None and arena.misses > 0
    # Runs 2 and 3 attached instead of copying.
    assert arena.hits >= arena.misses
    assert owned_segments() == []
    assert set(arena_segments()) == ambient  # close() unlinked the arena


def test_warm_query_trace_has_no_copy_spans():
    from repro.obs import Tracer
    from repro.resilience.context import SimulatedClock

    table = make_table(1500, 8, seed=62)
    # The structure cache keeps the trees — and so their levels' arena
    # tokens — across the two runs.
    with StructureCache() as cache, forced(2) as scheduler:
        cold_tracer = Tracer(clock=SimulatedClock())
        run_calls(table, CALLS, scheduler=scheduler, cache=cache,
                  ctx=ExecutionContext(tracer=cold_tracer))
        cold = cold_tracer.finish().find_all("shm.copy")
        assert cold  # the cold run materialized arena entries
        # Workers read tree levels only; the group's sort stays in the
        # structure cache.
        assert {s.attrs["kind"] for s in cold} == {"levels"}
        warm_tracer = Tracer(clock=SimulatedClock())
        run_calls(table, CALLS, scheduler=scheduler, cache=cache,
                  ctx=ExecutionContext(tracer=warm_tracer))
        # The whole point of the arena: the warm run's trace shows no
        # copy phase at all.
        assert warm_tracer.finish().find_all("shm.copy") == []


def test_intra_probe_fan_shares_levels_through_the_arena():
    # Structures build once on the query thread, tree levels serialize
    # into the arena, probe batches fan to workers. With a structure cache the repeat query reuses the
    # same tree — and its workers attach the levels zero-copy.
    table = make_table(1200, 1, seed=63)
    want = run(table)
    with StructureCache() as cache:
        with forced(2) as scheduler:
            assert run(table, scheduler=scheduler, cache=cache) == want
            assert run(table, scheduler=scheduler, cache=cache) == want
            stats = scheduler.stats()
            arena = scheduler.arena_stats()
            kinds = {key[0]
                     for key in scheduler.table_arena()._entries}
    assert stats.intra_groups == 2
    assert stats.process_groups == 2
    assert stats.degraded_groups == 0
    assert kinds == {"levels"}
    assert arena.hits >= 1
    assert owned_segments() == []


def test_probe_fan_sigkill_once_retries_and_matches(
        tmp_path, monkeypatch):
    table = make_table(1200, 1, seed=64)
    want = run(table)
    monkeypatch.setenv(CHAOS_ENV, f"kill:0:1:{tmp_path}")
    ctx = ExecutionContext()
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        worker_stats = scheduler.worker_stats()
        stats = scheduler.stats()
    assert worker_stats["crashes"] == 1
    assert worker_stats["retries"] == 1
    assert stats.process_groups >= 1
    assert stats.degraded_groups == 0
    assert owned_segments() == []


def test_probe_fan_sigkill_twice_quarantines_and_matches(
        tmp_path, monkeypatch):
    # Two kills on the same probe range: quarantine, then the parent
    # recomputes exactly that range serially — still bit-identical.
    table = make_table(1200, 1, seed=65)
    want = run(table)
    monkeypatch.setenv(CHAOS_ENV, f"kill:0:2:{tmp_path}")
    ctx = ExecutionContext()
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler, ctx=ctx) == want
        worker_stats = scheduler.worker_stats()
    assert worker_stats["crashes"] == 2
    assert worker_stats["quarantined"] >= 1
    assert owned_segments() == []


def test_worker_probe_input_views_are_read_only():
    # The regression the shared tree demands: arena pages are mapped
    # into every worker, so a mutating kernel must raise, not corrupt
    # sibling workers' inputs.
    from repro.parallel.procworker import (
        LevelsHandle,
        ProcProbeJob,
        _ProbeState,
    )
    from repro.parallel.shm import ShmArena

    with ShmArena() as arena:
        in_spec = arena.share(np.arange(128, dtype=np.int64))
        out_spec = arena.create((128,), np.int64)
        handle = LevelsHandle(token="t0", fanout=16, sample_every=8,
                              keys=(), anchors=(), bridges=(),
                              agg_prefix=())
        job = ProcProbeJob(probe_id="p0", op="count", levels=handle,
                           inputs=(("lo", in_spec),),
                           outputs=(out_spec,))
        state = _ProbeState(job)
        try:
            assert state.inputs["lo"].flags.writeable is False
            with pytest.raises(ValueError):
                state.inputs["lo"][0] = 99
            state.outputs[0][0] = 7  # outputs must stay writable
        finally:
            state.close()


def test_spawn_start_method_roundtrip(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    table = make_table(1200, 8, seed=66)
    want = run(table)
    with forced(2) as scheduler:
        assert run(table, scheduler=scheduler) == want
        assert scheduler.stats().process_groups >= 1
    assert owned_segments() == []


def test_session_survives_kill_storm_with_typed_errors_only(
        tmp_path, monkeypatch):
    # The CI chaos matrix property, session-level: kills mid-query may
    # only ever surface as correct results (after retry) — never a
    # wrong row, never an untyped error, never a leaked segment.
    catalog = Catalog({"t": make_table(1500, 60, seed=52)})
    with Session(catalog) as serial_session:
        want = serial_session.execute(SQL).column("v").to_list()
    monkeypatch.setenv(CHAOS_ENV, f"kill:7:3:{tmp_path}")
    config = SessionConfig(workers=2)
    with Session(catalog, config=config) as session:
        session.parallel = forced(2)
        try:
            for _ in range(3):
                got = session.execute(SQL).column("v").to_list()
                assert got == want
            health = session.health_stats()
        finally:
            session.parallel.close()
    assert health.worker_crashes == 3
    assert owned_segments() == []
