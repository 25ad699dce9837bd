"""Shared-memory arena: roundtrip, ledger accounting, orphan sweep.

The robustness contract of :mod:`repro.parallel.shm` — the process
executor's column transport — is a pid-tagged discipline: every
segment is pid-tagged, charged to the memory governor under the
``"shm"`` tag, unlinked on close, and cleaned up by the startup sweep
only when its owner is dead (two concurrent sessions must never delete
each other's columns).
"""

import os

import numpy as np
import pytest

from repro.parallel.shm import (
    ARENA_PREFIX,
    SHM_PREFIX,
    ShmArena,
    ShmArraySpec,
    arena_segments,
    attach_array,
    current_shm_bytes,
    owned_segments,
    sweep_orphan_segments,
)
from repro.resilience.memory import MemoryGovernor


def test_share_roundtrips_bit_identical():
    source = np.arange(4096, dtype=np.int64) * 3 - 17
    with ShmArena() as arena:
        spec = arena.share(source)
        assert spec.name.startswith(f"{SHM_PREFIX}p{os.getpid()}-")
        assert spec.nbytes == source.nbytes
        attached, segment = attach_array(spec)
        try:
            assert attached.dtype == source.dtype
            assert np.array_equal(attached, source)
        finally:
            del attached
            segment.close()


def test_create_is_zeroed_and_writable_through_attach():
    with ShmArena() as arena:
        spec = arena.create((64,), np.float64)
        view = arena.view(spec)
        assert not view.any()
        attached, segment = attach_array(spec)
        try:
            attached[7] = 2.5
            # The parent-side view sees the child-side write: one set
            # of pages, not a copy.
            assert view[7] == 2.5
        finally:
            del attached
            segment.close()


def test_close_unlinks_and_leaves_no_owned_segments():
    # Relative to ambient bytes: under REPRO_WORKERS=2 the
    # default scheduler's session arena legitimately persists.
    ambient = current_shm_bytes()
    arena = ShmArena()
    arena.share(np.ones(128, dtype=np.float64))
    arena.create((32,), np.int64)
    assert len(owned_segments()) >= 2
    assert current_shm_bytes() >= ambient + 128 * 8 + 32 * 8
    arena.close()
    arena.close()  # idempotent
    assert owned_segments() == []
    assert current_shm_bytes() == ambient


def test_governor_ledger_charges_and_refunds_the_shm_tag():
    governor = MemoryGovernor(budget_bytes=10_000_000)
    arena = ShmArena(governor=governor)
    arena.share(np.arange(1000, dtype=np.int64))
    assert governor.stats().by_tag.get("shm", 0) == 8000
    arena.close()
    assert governor.stats().by_tag.get("shm", 0) == 0


def test_sweep_removes_dead_pid_segments_only(tmp_path):
    # A pid far above pid_max never names a live process.
    dead = tmp_path / f"{SHM_PREFIX}p99999999-deadbeef00000000"
    live = tmp_path / f"{SHM_PREFIX}p{os.getpid()}-cafecafe00000000"
    other = tmp_path / "unrelated-file"
    for path in (dead, live, other):
        path.write_bytes(b"x")
    removed = sweep_orphan_segments(str(tmp_path))
    assert removed == 1
    assert not dead.exists()
    # The live-pid segment belongs to a concurrent session: untouched.
    assert live.exists()
    assert other.exists()


def test_sweep_missing_directory_is_a_noop(tmp_path):
    assert sweep_orphan_segments(str(tmp_path / "absent")) == 0


def test_sweep_recognizes_arena_lifetime_segments(tmp_path):
    # Session-lifetime arena segments use their own prefix but the same
    # pid-tagged discipline: dead-owner segments go, live-owner stay.
    dead = tmp_path / f"{ARENA_PREFIX}p99999999-deadbeef00000000"
    live = tmp_path / f"{ARENA_PREFIX}p{os.getpid()}-cafecafe00000000"
    dead.write_bytes(b"x")
    live.write_bytes(b"x")
    assert sweep_orphan_segments(str(tmp_path)) == 1
    assert not dead.exists()
    assert live.exists()


def test_two_sessions_race_neither_sweeps_the_others_arena(tmp_path):
    # The arena outlives queries by design: a concurrent session's
    # startup sweep must not mistake a live session's warm arena for
    # an orphan, in either sweep order.
    mine = tmp_path / f"{ARENA_PREFIX}p{os.getpid()}-aaaaaaaaaaaaaaaa"
    theirs = tmp_path / f"{ARENA_PREFIX}p1-bbbbbbbbbbbbbbbb"  # pid 1
    mine.write_bytes(b"x")
    theirs.write_bytes(b"x")
    assert sweep_orphan_segments(str(tmp_path)) == 0
    assert sweep_orphan_segments(str(tmp_path)) == 0
    assert mine.exists() and theirs.exists()


def test_owned_segments_excludes_the_arena_prefix():
    # Leak checks assert owned_segments() == [] after every query while
    # the arena persists — the two namespaces must stay disjoint.
    from repro.parallel.arena import TableArena

    # Ambient segments (the default scheduler's arena, when an env leg
    # routes the suite through the process executor) persist by design.
    ambient = set(arena_segments())
    with TableArena() as arena:
        lease = arena.lease()
        entry = lease.get(("col", "fp"),
                          lambda: [np.arange(64, dtype=np.int64)])
        assert entry.specs[0].name.startswith(
            f"{ARENA_PREFIX}p{os.getpid()}-")
        assert owned_segments() == []
        assert set(arena_segments()) - ambient == {entry.specs[0].name}
        lease.release()
    assert set(arena_segments()) == ambient


def test_two_sessions_race_neither_sweeps_the_other(tmp_path):
    # Both "sessions" are alive (same pid here; the sweep only checks
    # liveness): each one's startup sweep must keep the other's
    # segments no matter the order.
    a = tmp_path / f"{SHM_PREFIX}p{os.getpid()}-aaaaaaaaaaaaaaaa"
    b = tmp_path / f"{SHM_PREFIX}p1-bbbbbbbbbbbbbbbb"  # pid 1: init, alive
    a.write_bytes(b"x")
    b.write_bytes(b"x")
    assert sweep_orphan_segments(str(tmp_path)) == 0
    assert sweep_orphan_segments(str(tmp_path)) == 0
    assert a.exists() and b.exists()


def test_spec_nbytes_counts_elements():
    assert ShmArraySpec("n", "<i8", (3, 4)).nbytes == 96
    assert ShmArraySpec("n", "<f8", ()).nbytes == 8


def test_shm_attach_fault_site_fires_before_allocation():
    from repro.resilience import ExecutionContext, FaultInjector, activate

    faults = FaultInjector().plan("shm.attach", times=1)
    with activate(ExecutionContext(faults=faults)):
        arena = ShmArena()
        with pytest.raises(OSError):
            arena.share(np.arange(10, dtype=np.int64))
        arena.close()
    # The injected failure allocated nothing: no segment to leak.
    assert faults.fired("shm.attach") == 1
    assert owned_segments() == []
