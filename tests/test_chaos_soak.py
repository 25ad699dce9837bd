"""Chaos/soak harness: concurrent sessions under seeded fault storms.

The acceptance property for the resilience stack as a whole: with
worker threads hammering one :class:`~repro.Session` through the
gateway while a *seeded* fault schedule fails structure builds
underneath them, every query either
returns exactly the healthy oracle's answer or fails with a typed
resilience error — never a wrong result, never an untyped crash, never
a wedged slot. Once the faults stop, the very next query builds its
structures again: a failed build degrades only its own call.

The schedule derives from ``CHAOS_SEED`` (default 0); CI sweeps several
seeds so different interleavings of fault-vs-query are exercised, and
any failure reproduces by exporting the same seed.
"""

import os
import random
import threading

import pytest

from conftest import make_window_table
from repro import Catalog, Session, SessionConfig
from repro.errors import ResilienceError
from repro.resilience import FaultInjector
from repro.sql.parser import parse
from repro.sql.session import _estimate_query_bytes

SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Concurrent client threads in the main soak (CI runs 4-thread sweeps
#: across several seeds; the default exercises 2x the gateway slots).
WORKERS = int(os.environ.get("CHAOS_WORKERS", "8"))

#: Sites whose failures the engine absorbs by degrading (fallback to
#: the naive evaluator) — a fault here must never surface to the caller.
ABSORBED_SITES = ("structure.build",)

QUERIES = [
    """
    select g, count(distinct x) over w as v
    from t
    window w as (partition by g order by o
                 rows between 15 preceding and current row)
    """,
    """
    select g, percentile_disc(0.5, order by x) over w as v
    from t
    window w as (partition by g order by o
                 rows between 10 preceding and 2 following)
    """,
    """
    select g, sum(distinct x) over w as v
    from t
    window w as (partition by g order by o
                 rows between 8 preceding and current row)
    """,
    """
    select g, rank(order by y desc) over w as v
    from t
    window w as (partition by g order by o
                 rows between 12 preceding and current row)
    """,
]


def _schedule(seed):
    """A seeded, repeatable storm: every absorbed site fails in several
    bursts at pseudo-random offsets. A window group builds each of its
    structures once per (group, call), so the four queries make only a
    handful of builds: the storm starts within the first three."""
    rng = random.Random(seed)
    faults = FaultInjector()
    for site in ABSORBED_SITES:
        faults.plan(site, times=rng.randint(2, 6),
                    after=rng.randint(0, 2))
    return faults


def _expected(catalog):
    with Session(catalog) as healthy:
        return [healthy.execute(sql).column("v").to_list()
                for sql in QUERIES]


def _soak(session, expected, workers=8, rounds=3):
    """Run every query ``rounds`` times from each of ``workers``
    threads; collect wrong results and unexpected error types."""
    problems = []
    lock = threading.Lock()
    barrier = threading.Barrier(workers)

    def work(worker):
        rng = random.Random(SEED * 1009 + worker)
        barrier.wait()
        for round_ in range(rounds):
            for index in rng.sample(range(len(QUERIES)), len(QUERIES)):
                priority = rng.choice(["interactive", "batch"])
                try:
                    table = session.execute(QUERIES[index],
                                            priority=priority)
                except ResilienceError:
                    continue  # typed degradation is an allowed outcome
                except Exception as exc:
                    with lock:
                        problems.append(
                            f"worker {worker} round {round_} query "
                            f"{index}: untyped {type(exc).__name__}: {exc}")
                    continue
                values = table.column("v").to_list()
                if values != expected[index]:
                    with lock:
                        problems.append(
                            f"worker {worker} round {round_} query "
                            f"{index}: WRONG RESULT")

    threads = [threading.Thread(target=work, args=(w,), daemon=True)
               for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return problems


def test_soak_under_seeded_fault_storm_returns_no_wrong_results():
    catalog = Catalog({"t": make_window_table(n=200, seed=5)})
    expected = _expected(catalog)
    faults = _schedule(SEED)
    # Every worker reserves its query's bytes (2 x scanned bytes + 64
    # KiB) before gateway admission, so up to WORKERS reservations
    # share the ledger with the cached plans (~8 KiB) and trees (~32
    # KiB). Room for all of them plus 64 KiB means a batch (hard)
    # reservation never waits out its deadline: nothing is shed.
    reservation = _estimate_query_bytes(parse(QUERIES[0]), catalog)
    with Session(catalog, config=SessionConfig(
                 faults=faults,
                 memory_budget_bytes=WORKERS * reservation + (64 << 10),
                 max_concurrent=4,
                 max_queue=64, verify_rate=0.1, verify_seed=SEED)) as session:
        problems = _soak(session, expected, workers=WORKERS, rounds=3)
        assert problems == []

        # Nothing was shed (the queue was sized for the load) and every
        # admitted query released its slot.
        stats = session.gateway.stats()
        assert stats.active == 0
        assert stats.admitted == stats.completed == WORKERS * 3 * len(QUERIES)
        assert stats.peak_active <= 4
        assert stats.shed == 0

        # The storm really happened.
        fired = sum(faults.fired(site) for site in ABSORBED_SITES)
        assert fired > 0

        # Heal the world: with the cached structures dropped, the next
        # query of each shape builds its trees again, with no wait.
        faults.clear()
        session.close()
        for sql, values in zip(QUERIES, expected):
            healed = session.execute(sql)
            assert healed.column("v").to_list() == values
            assert healed.stats.health.fallbacks == 0
            assert healed.stats.structure_builds >= 1
        problems = _soak(session, expected, workers=4, rounds=1)
        assert problems == []

        # Telemetry tells the story afterwards.
        health = session.health_stats()
        assert health.faults > 0
        text = session.explain(QUERIES[0])
        assert "Gateway" in text


def test_soak_with_saturation_sheds_typed_and_stays_correct():
    # An undersized gateway under the same storm: shedding is allowed
    # (it is typed), wrong results still are not.
    catalog = Catalog({"t": make_window_table(n=120, seed=6)})
    expected = _expected(catalog)
    faults = _schedule(SEED + 1)
    with Session(catalog, config=SessionConfig(
                 faults=faults, max_concurrent=1, max_queue=1,
                 verify_rate=0.05, verify_seed=SEED)) as session:
        problems = _soak(session, expected, workers=6, rounds=2)
        assert problems == []
        stats = session.gateway.stats()
        assert stats.active == 0
        assert stats.admitted == stats.completed
        assert stats.admitted + stats.shed == 6 * 2 * len(QUERIES)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fault_schedules_vary_with_the_seed(seed):
    ours = [(site, plan.times, plan.after)
            for site, plan in sorted(_schedule(seed)._plans.items())]
    again = [(site, plan.times, plan.after)
             for site, plan in sorted(_schedule(seed)._plans.items())]
    assert ours == again  # same seed, same storm
