"""Determinism suite for parallel window execution.

The contract of :mod:`repro.parallel.scheduler` is that parallelism is
*invisible* in results: whether the scheduler picks the probe fan (with
``workers >= 2`` meaning the supervised process pool) or serial, every
output column is bit-identical to serial evaluation, because each probe
batch scatters into precomputed row positions rather than by completion
order. This suite pins that down over partition-count
extremes (1 / 8 / 1000), ROWS / RANGE / GROUPS frames with exclusions,
worker counts 1 / 2 / 4, seeded faults at the ``parallel.morsel`` site,
and cancellation mid-fan-out (which must leave zero pinned cache
entries behind).
"""

import numpy as np
import pytest

from conftest import make_window_table
from repro import Catalog, Session, SessionConfig
from repro.cache.store import StructureCache
from repro.errors import (
    ConfigurationError,
    ParallelExecutionError,
    ResilienceError,
    flatten_parallel_failures,
)
from repro.parallel.scheduler import (
    INTRA_PARTITION,
    SERIAL,
    WindowScheduler,
    estimated_group_ops,
    resolve_workers,
)
from repro.resilience import (
    CancellationToken,
    ExecutionContext,
    FaultInjector,
    activate,
)
from repro.table import DataType, Table
from repro.window import (
    FrameExclusion,
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
    unbounded_preceding,
    window_query,
)
from repro.window.frame import FrameMode, OrderItem


def make_table(n_rows: int, n_partitions: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict({
        "g": (DataType.INT64,
              [int(v) for v in rng.integers(0, n_partitions, n_rows)]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 50, n_rows)]),
        "x": (DataType.INT64,
              [int(v) if rng.random() > 0.1 else None
               for v in rng.integers(0, 12, n_rows)]),
        "y": (DataType.FLOAT64,
              [float(v) for v in rng.normal(size=n_rows)]),
    }, name="t")


def forced(workers: int, **overrides) -> WindowScheduler:
    """A scheduler with thresholds low enough that the small test tables
    actually take the probe fan."""
    options = dict(workers=workers, min_parallel_ops=0.0,
                   min_intra_rows=64, task_size=256)
    options.update(overrides)
    return WindowScheduler(**options)


FRAMES = [
    FrameSpec.rows(preceding(7), following(2)),
    FrameSpec.range(preceding(5), following(5)),
    FrameSpec.groups(preceding(2), following(2), FrameExclusion.GROUP),
    FrameSpec.rows(unbounded_preceding(), current_row(),
                   FrameExclusion.CURRENT_ROW),
]

CALLS = [
    WindowCall("count", ["x"], distinct=True),
    WindowCall("rank", order_by=(OrderItem("y"),)),
    WindowCall("percentile_disc", ["y"], fraction=0.5),
    WindowCall("sum", ["x"]),
]

#: (rows, partitions): one partition, a balanced handful, and a long
#: tail of tiny ones — each one evaluation of the whole group.
SHAPES = [(1500, 1), (1200, 8), (1500, 1000)]


def run(table, spec, scheduler=None, cache=None):
    result = window_query(table, CALLS, spec, cache=cache,
                          parallel=scheduler)
    return [result.columns[i].to_list()
            for i in range(-len(CALLS), 0)]


# ----------------------------------------------------------------------
# parallel == serial, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("frame_index", range(len(FRAMES)))
@pytest.mark.parametrize("n_rows,n_partitions", SHAPES)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_matches_serial_exactly(n_rows, n_partitions, workers,
                                         frame_index):
    table = make_table(n_rows, n_partitions,
                       seed=7 * n_partitions + frame_index)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FRAMES[frame_index])
    want = run(table, spec)  # default scheduler, serial in this process
    with forced(workers) as scheduler:
        got = run(table, spec, scheduler=scheduler)
        decision = scheduler.stats().decisions[-1]
    # Bit-identical, not approximately equal.
    assert got == want
    if workers == 1:
        assert decision.strategy == SERIAL
    else:
        assert decision.strategy == INTRA_PARTITION


@pytest.mark.parametrize("seed", range(4))
def test_randomized_specs_match_serial(seed):
    import random

    rng = random.Random(seed)
    table = make_table(rng.choice([400, 900]),
                       rng.choice([1, 8, 200]), seed=seed)
    mode = rng.choice([FrameMode.ROWS, FrameMode.RANGE, FrameMode.GROUPS])
    exclusion = rng.choice(list(FrameExclusion))
    frame = FrameSpec(mode, preceding(rng.randint(0, 9)),
                      following(rng.randint(0, 9)), exclusion)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=frame)
    want = run(table, spec)
    for workers in (2, 4):
        with forced(workers) as scheduler:
            assert run(table, spec, scheduler=scheduler) == want


def test_unpartitioned_group_is_intra_and_identical():
    table = make_table(2000, 1, seed=3)
    spec = WindowSpec(order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(40), following(10)))
    want = run(table, spec)
    with forced(4) as scheduler:
        assert run(table, spec, scheduler=scheduler) == want
        assert scheduler.stats().decisions[-1].strategy == INTRA_PARTITION
        assert scheduler.stats().pool_started


@pytest.mark.parametrize("call,exclusion", [
    # A function ORDER BY: in frame order nth_value needs no tree.
    (WindowCall("nth_value", ["x"], nth=3, order_by=(OrderItem("y"),)),
     FrameExclusion.CURRENT_ROW),
    (WindowCall("lead", ["y"], order_by=(OrderItem("y"),)),
     FrameExclusion.NO_OTHERS),
])
def test_value_and_navigation_probes_fan(call, exclusion):
    # Every select-family evaluator reaches the kernels through
    # part.probes, EXCLUDE pieces included — none calls them directly.
    table = make_table(2000, 1, seed=5)
    spec = WindowSpec(order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(40), following(10),
                                           exclusion))
    want = window_query(table, [call], spec).columns[-1]
    with forced(2) as scheduler:
        got = window_query(table, [call], spec,
                           parallel=scheduler).columns[-1]
        stats = scheduler.stats()
    assert got == want and got.dtype is want.dtype
    assert stats.decisions[-1].strategy == INTRA_PARTITION
    assert stats.process_groups == 1  # a probe batch ran on the pool
    assert stats.morsels_run > 0


def test_parallel_with_cache_matches_and_unpins():
    # Cache hit/pin accounting of the probe fan: the query thread
    # builds (or attaches) the structures, the workers only probe.
    table = make_table(1000, 1, seed=11)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(6), current_row()))
    want = run(table, spec)
    with StructureCache() as cache:
        with forced(4) as scheduler:
            assert run(table, spec, scheduler=scheduler, cache=cache) == want
            # Warm second run: same answer from cached structures.
            assert run(table, spec, scheduler=scheduler, cache=cache) == want
        stats = cache.stats()
        assert stats.hits > 0
        assert stats.pinned_entries == 0


# ----------------------------------------------------------------------
# scheduler decisions
# ----------------------------------------------------------------------
def test_estimated_group_ops_keeps_its_pre_closed_form_values():
    # Literal outputs of the cost-model implementation this replaced
    # (3.4 * n * log2(n) * calls): the serial/parallel threshold must
    # not move by a bit.
    for rows, calls, want in [
            (31, 1, 522.1722911147767),
            (1, 1, 3.4000000000000004),
            (60000, 2, 6476051.3511504065),
            (800000, 4, 213352888.36187252),
            (1500, 4, 215235.23442181817),
            (60000, 1, 3238025.6755752033),
            (0, 3, 0.0)]:
        assert estimated_group_ops(rows, calls) == want


def test_choose_serial_below_threshold_and_reports_reason():
    scheduler = WindowScheduler(workers=4)  # real thresholds
    decision = scheduler.choose(31, n_calls=1)
    assert decision.strategy == SERIAL
    assert "threshold" in decision.reason
    assert not scheduler.stats().pool_started  # decision alone is free


def test_choose_after_broken_pool_is_serial_with_reason():
    scheduler = forced(4)
    scheduler.mark_process_broken()
    decision = scheduler.choose(90_030, n_calls=1)
    assert decision.strategy == SERIAL
    assert decision.executor == SERIAL
    assert decision.reason == "process pool broken"


def test_choose_workers_one_never_parallel():
    scheduler = WindowScheduler(workers=1, min_parallel_ops=0.0)
    decision = scheduler.choose(800_000, n_calls=4)
    assert decision.strategy == SERIAL
    assert decision.reason == "workers=1"


def test_choose_dominant_partition_is_intra():
    # A group is one evaluation whatever its partitions: every group
    # above the thresholds fans its probes.
    scheduler = forced(4)
    decision = scheduler.choose(90_030, n_calls=1)
    assert decision.strategy == INTRA_PARTITION
    assert decision.executor == "process"
    assert decision.morsels == 90_030 // 256 + 1


def test_choose_dominant_but_tiny_stays_serial():
    scheduler = WindowScheduler(workers=4, min_parallel_ops=0.0,
                                min_intra_rows=1_000_000)
    decision = scheduler.choose(90_020, n_calls=1)
    assert decision.strategy == SERIAL
    assert "too small" in decision.reason


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "6")
    assert resolve_workers() == 6
    assert resolve_workers(2) == 2          # argument wins
    monkeypatch.setenv("REPRO_WORKERS", "nope")
    with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
        resolve_workers()


# ----------------------------------------------------------------------
# faults at parallel.morsel, cancellation, pins
# ----------------------------------------------------------------------
def _ctx(**kwargs) -> ExecutionContext:
    return ExecutionContext(**kwargs)


def test_morsel_fault_surfaces_typed_then_recovers():
    table = make_table(1200, 120, seed=21)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(5), current_row()))
    want = run(table, spec)
    for seed in range(3):
        import random

        rng = random.Random(seed)
        faults = FaultInjector().plan("parallel.morsel",
                                      times=rng.randint(1, 3),
                                      after=rng.randint(0, 2))
        with forced(4) as scheduler:
            with activate(_ctx(faults=faults)):
                with pytest.raises(ParallelExecutionError) as info:
                    run(table, spec, scheduler=scheduler)
                assert "injected" in str(info.value)
                # The storm is finite: the retry completes and matches.
                assert run(table, spec, scheduler=scheduler) == want
        assert faults.fired("parallel.morsel") >= 1


def test_morsel_fault_leaves_no_pinned_cache_entries():
    table = make_table(1000, 100, seed=22)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(5), current_row()))
    faults = FaultInjector().plan("parallel.morsel", times=2, after=1)
    with StructureCache() as cache:
        with forced(4) as scheduler:
            with activate(_ctx(faults=faults)):
                with pytest.raises(ParallelExecutionError):
                    run(table, spec, scheduler=scheduler, cache=cache)
        assert cache.stats().pinned_entries == 0


def test_cancellation_mid_fanout_leaves_no_pins():
    # The injected exception cancels the token as a morsel is
    # dispatched, so the pool sees the cancellation at its next
    # checkpoint with other morsels in flight — a genuine mid-fan-out
    # cancel (busy workers are killed, nothing is left pinned).
    table = make_table(1000, 100, seed=23)
    spec = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(5), current_row()))
    token = CancellationToken()

    def cancel_and_fail():
        token.cancel()
        return RuntimeError("injected mid-fan-out cancel")

    faults = FaultInjector().plan("parallel.morsel", times=1, after=2,
                                  exception=cancel_and_fail)
    with StructureCache() as cache:
        with forced(4) as scheduler:
            with activate(_ctx(faults=faults, token=token)):
                with pytest.raises((ParallelExecutionError,
                                    ResilienceError)):
                    run(table, spec, scheduler=scheduler, cache=cache)
        assert token.cancelled
        stats = cache.stats()
        assert stats.pinned_entries == 0
    # And the query is re-runnable after cancellation: fresh context,
    # same bit-identical answer as serial.
    with forced(4) as scheduler:
        assert run(table, spec, scheduler=scheduler) == run(table, spec)


# ----------------------------------------------------------------------
# nested-failure flattening (the bugfix)
# ----------------------------------------------------------------------
def _leaf(lo, hi):
    return ParallelExecutionError(lo, hi, ValueError(f"boom {lo}"))


def test_flatten_expands_nested_wrappers_to_leaves():
    inner = [_leaf(0, 5), _leaf(5, 10)]
    wrapper = ParallelExecutionError(0, 5, ValueError("boom 0"),
                                     failures=inner)
    flat = flatten_parallel_failures([wrapper, _leaf(20, 25)])
    assert [(f.lo, f.hi) for f in flat] == [(0, 5), (5, 10), (20, 25)]
    assert all(f.failures == [f] for f in flat)  # all leaves


def test_flatten_dedups_shared_leaves_and_keeps_first_seen_order():
    a, b = _leaf(0, 5), _leaf(5, 10)
    wrapper = ParallelExecutionError(0, 5, ValueError("x"),
                                     failures=[a, b])
    flat = flatten_parallel_failures([a, wrapper, b])
    assert flat == [a, b]


def test_nested_pool_error_reports_flat_failures():
    # A wrapper-of-wrappers: the resulting error's failures list has
    # no wrapper entries left in it.
    probe_failures = [_leaf(0, 256), _leaf(256, 512)]
    morsel_error = ParallelExecutionError(
        0, 256, ValueError("boom 0"), failures=probe_failures)
    top = ParallelExecutionError(0, 1, morsel_error,
                                 failures=[morsel_error, _leaf(3, 4)])
    assert [(f.lo, f.hi) for f in top.failures] == [(0, 256), (256, 512),
                                                    (3, 4)]
    assert "more worker failure" in str(top)


def test_single_failure_has_self_failures():
    leaf = _leaf(7, 9)
    assert leaf.failures == [leaf]
    assert "(+" not in str(leaf)


# ----------------------------------------------------------------------
# session integration + EXPLAIN
# ----------------------------------------------------------------------
SQL = """
select g, count(distinct x) over w as v
from t
window w as (partition by g order by o
             rows between 6 preceding and current row)
"""


def test_session_workers_and_explain_parallelism():
    catalog = Catalog({"t": make_table(1200, 60, seed=31)})
    with Session(catalog) as serial_session:
        want = serial_session.execute(SQL).column("v").to_list()
    with Session(catalog, config=SessionConfig(workers=2)) as session:
        # Lower the thresholds so this small table actually fans out.
        session.parallel = forced(2)
        try:
            got = session.execute(SQL).column("v").to_list()
            assert got == want
            text = session.explain(SQL)
        finally:
            session.parallel.close()
    assert "Parallelism" in text
    assert "workers=2" in text
    assert INTRA_PARTITION in text
    assert "morsels" in text


def test_explain_reports_serial_reason_under_real_thresholds():
    catalog = Catalog({"t": make_window_table(n=60, seed=8)})
    with Session(catalog, config=SessionConfig(workers=4)) as session:
        session.execute(SQL)
        text = session.explain(SQL)
    assert "Parallelism" in text
    assert SERIAL in text
    assert "threshold" in text


def test_session_without_workers_stays_serial_and_quiet(monkeypatch):
    # "No workers configured anywhere" — neutralise the CI matrix's
    # global REPRO_WORKERS so the env default cannot leak in.
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    catalog = Catalog({"t": make_window_table(n=60, seed=9)})
    with Session(catalog) as session:
        session.execute(SQL)
        assert not session.parallel.stats().pool_started
        assert "Parallelism" not in session.explain(SQL)


def test_concurrent_queries_share_one_bounded_pool():
    # max_concurrent x workers must not oversubscribe: every admitted
    # query funnels into the same 2-process pool.
    import threading

    catalog = Catalog({"t": make_table(1200, 60, seed=33)})
    with Session(catalog) as serial_session:
        want = serial_session.execute(SQL).column("v").to_list()
    with Session(catalog, config=SessionConfig(max_concurrent=4)) as session:
        session.parallel = forced(2)
        try:
            problems = []

            def work():
                try:
                    got = session.execute(SQL).column("v").to_list()
                    if got != want:
                        problems.append("wrong result")
                except Exception as exc:  # pragma: no cover - diagnostic
                    problems.append(repr(exc))

            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert problems == []
            worker_stats = session.parallel.worker_stats()
            assert worker_stats["live"] == 2
            assert worker_stats["spawned"] == 2
        finally:
            session.parallel.close()
