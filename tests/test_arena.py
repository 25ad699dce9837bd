"""The session-lifetime shared-memory table arena.

Covers the contract the operator and the memory governor rely on:
hit/miss/pin accounting, LRU eviction under the arena's own budget and
under governor pressure (with ``HealthCounters.arena_evictions``
visibility), ledger charge/refund under the ``"shm-arena"`` tag, the
governor-reclaimer hook (a hard reservation evicts arena entries
*before* shedding), the ``shm.copy`` cold-only trace span, and segment
hygiene at close.
"""

import numpy as np
import pytest

from repro.errors import MemoryPressureError
from repro.obs import Tracer
from repro.parallel.arena import ARENA_TAG, TableArena
from repro.parallel.shm import arena_segments, owned_segments
from repro.resilience import ExecutionContext, activate
from repro.resilience.context import SimulatedClock
from repro.resilience.memory import MemoryGovernor


def arrays(seed: int, n: int = 1024):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 100, n).astype(np.int64),
            rng.random(n)]


def ambient_segments():
    # Under REPRO_WORKERS=2 earlier tests in the same process
    # may have warmed the (never-closed) default scheduler's arena;
    # hygiene assertions are relative to that ambient set.
    return set(arena_segments())


# ----------------------------------------------------------------------
# acquisition: hits, misses, pins
# ----------------------------------------------------------------------
def test_miss_materializes_and_hit_reuses_the_same_segments():
    ambient = ambient_segments()
    with TableArena() as arena:
        data = arrays(1)
        lease = arena.lease()
        entry = lease.get(("col", "fp1"), lambda: data)
        assert [v.tolist() for v in entry.views] \
            == [a.tolist() for a in data]
        lease.release()

        lease2 = arena.lease()
        again = lease2.get(("col", "fp1"),
                           lambda: pytest.fail("hit must not rebuild"))
        assert [s.name for s in again.specs] \
            == [s.name for s in entry.specs]
        lease2.release()

        stats = arena.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.bytes > 0
    assert ambient_segments() == ambient


def test_build_returning_none_caches_nothing():
    with TableArena() as arena:
        lease = arena.lease()
        assert lease.get(("levels", "t0"), lambda: None) is None
        lease.release()
        stats = arena.stats()
        # Not a miss: nothing materialized, nothing to count against
        # the hit ratio — non-shareable inputs are simply invisible.
        assert (stats.entries, stats.misses, stats.bytes) == (0, 0, 0)


def test_none_array_slots_round_trip_as_none_specs():
    # Column entries carry (values, validity); tree-level entries carry
    # None for absent bridges — both sides must survive.
    with TableArena() as arena:
        lease = arena.lease()
        entry = lease.get(("levels", "t1"),
                          lambda: [np.arange(8), None, np.ones(4)])
        assert entry.specs[1] is None and entry.views[1] is None
        assert entry.specs[0] is not None and entry.specs[2] is not None
        lease.release()


def test_pinned_entries_are_never_evicted():
    ambient = ambient_segments()
    with TableArena(budget_bytes=1) as arena:  # always over budget
        lease = arena.lease()
        entry = lease.get(("col", "pinned"), lambda: arrays(2))
        # Over budget but pinned: the entry must survive more traffic.
        lease.get(("col", "other"), lambda: arrays(3))
        assert arena.stats().entries >= 1
        assert ("col", "pinned") in arena._entries
        lease.release()
        # Unpinned now; the 1-byte budget evicts everything.
        arena.reclaim(1 << 30)
        assert arena.stats().entries == 0
    assert ambient_segments() == ambient


def test_lru_eviction_under_own_budget():
    one_entry = sum(a.nbytes for a in arrays(0))
    with activate(ExecutionContext()) as ctx:
        with TableArena(budget_bytes=int(one_entry * 2.5)) as arena:
            for i in range(4):
                lease = arena.lease()
                lease.get(("col", f"fp{i}"), lambda i=i: arrays(i))
                lease.release()
            stats = arena.stats()
            assert stats.entries == 2
            assert stats.evictions == 2
            # Least-recently-used go first: fp0/fp1 out, fp2/fp3 in.
            assert set(arena._entries) \
                == {("col", "fp2"), ("col", "fp3")}
        assert ctx.health.arena_evictions == 2


# ----------------------------------------------------------------------
# governor integration: ledger tag, pressure eviction, reclaimer
# ----------------------------------------------------------------------
def test_bytes_mirror_into_the_ledger_under_the_arena_tag():
    governor = MemoryGovernor()
    with TableArena(governor=governor) as arena:
        lease = arena.lease()
        entry = lease.get(("col", "fp"), lambda: arrays(4))
        assert governor.stats().by_tag[ARENA_TAG] == entry.nbytes
        lease.release()
        arena.reclaim(entry.nbytes)
        assert ARENA_TAG not in governor.stats().by_tag
    assert governor.stats().by_tag.get(ARENA_TAG, 0) == 0


def test_governor_pressure_evicts_unpinned_entries():
    governor = MemoryGovernor(budget_bytes=48 * 1024)
    with TableArena(governor=governor) as arena:
        lease = arena.lease()
        lease.get(("col", "a"), lambda: arrays(5))
        lease.release()
        # A foreign charge pushes the ledger over budget; the next
        # arena acquisition evicts the unpinned entry to repay.
        governor.charge(60 * 1024, "cache")
        lease = arena.lease()
        lease.get(("col", "b"), lambda: arrays(6))
        lease.release()
        assert ("col", "a") not in arena._entries
        assert arena.stats().evictions >= 1
        governor.release(60 * 1024, "cache")


def test_hard_reservation_reclaims_arena_before_shedding():
    # Arena holds ~12KiB of a 64KiB budget; a 56KiB batch reservation
    # fits only if the governor claws the arena bytes back. Without the
    # reclaimer hook this would wait out its timeout and shed.
    clock = SimulatedClock()
    governor = MemoryGovernor(budget_bytes=64 * 1024, clock=clock)
    with TableArena(governor=governor) as arena:
        lease = arena.lease()
        lease.get(("col", "warm"), lambda: arrays(7))
        lease.release()
        assert governor.stats().by_tag[ARENA_TAG] > 0
        with governor.reserve(56 * 1024, tag="query", hard=True,
                              wait_timeout=0.01):
            pass
        assert governor.stats().denials == 0
        assert arena.stats().evictions == 1


def test_hard_reservation_never_evicts_pinned_entries():
    clock = SimulatedClock()
    governor = MemoryGovernor(budget_bytes=32 * 1024, clock=clock)
    with TableArena(governor=governor) as arena:
        lease = arena.lease()
        lease.get(("col", "in-use"), lambda: arrays(8))
        with pytest.raises(MemoryPressureError):
            governor.reserve(30 * 1024, tag="query", hard=True,
                             wait_timeout=0.01)
        assert ("col", "in-use") in arena._entries
        lease.release()


# ----------------------------------------------------------------------
# tracing, lifecycle
# ----------------------------------------------------------------------
def test_cold_materialization_traces_shm_copy_and_warm_does_not():
    tracer = Tracer(clock=SimulatedClock())
    with activate(ExecutionContext(tracer=tracer)):
        with TableArena() as arena:
            lease = arena.lease()
            lease.get(("levels", "token"), lambda: arrays(12))
            lease.release()
            cold = tracer.finish().find_all("shm.copy")
            assert len(cold) == 1
            assert cold[0].attrs["kind"] == "levels"
            assert cold[0].attrs["bytes"] > 0

            warm_tracer = Tracer(clock=SimulatedClock())
            with activate(ExecutionContext(tracer=warm_tracer)):
                lease = arena.lease()
                lease.get(("levels", "token"),
                          lambda: pytest.fail("warm must not rebuild"))
                lease.release()
            assert warm_tracer.finish().find_all("shm.copy") == []


def test_close_unlinks_everything_even_pinned():
    ambient = ambient_segments()
    arena = TableArena()
    lease = arena.lease()
    lease.get(("col", "fp"), lambda: arrays(13))
    assert len(ambient_segments() - ambient) == 2
    arena.close()
    assert ambient_segments() == ambient
    assert owned_segments() == []
    with pytest.raises(RuntimeError):
        arena.lease().get(("col", "fp2"), lambda: arrays(14))


def test_failed_materialization_rolls_back_its_segments():
    class Boom:
        nbytes = 8

        def __array__(self, *args, **kwargs):
            raise ValueError("boom")

    ambient = ambient_segments()
    with TableArena() as arena:
        lease = arena.lease()
        # First array materializes a segment, then the second blows up
        # mid-entry: the half-built entry must roll back completely.
        with pytest.raises(ValueError):
            lease.get(("col", "bad"), lambda: [np.arange(16), Boom()])
        assert arena.stats().entries == 0
        assert ambient_segments() == ambient
