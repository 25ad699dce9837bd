"""Shared-memory segments for the process-pool probe fan.

The process pool (:mod:`repro.parallel.procpool`) ships tree levels and
per-row probe arrays to worker processes as
:class:`multiprocessing.shared_memory.SharedMemory` segments instead of
pickled copies: the parent copies each numpy array into a segment once,
and every child maps the same pages and wraps them in a zero-copy
``np.ndarray`` view. Result buffers are plain writable segments the
children fill at disjoint row positions, so output assembly needs no
result pickling.

Robustness rests on four rules:

* **pid-tagged names** — segments are named
  ``repro-shm-p<pid>-<hex>`` (group-transient) or
  ``repro-arena-p<pid>-<hex>`` (session-lifetime arena entries, see
  :mod:`repro.parallel.arena`), so any process can tell which segments
  belong to a live owner and which lifetime class they are in;
* **unlink-on-exit** — every live segment is registered in a
  module-wide table swept by an ``atexit`` hook, so a normal
  interpreter shutdown cannot leak ``/dev/shm`` entries;
* **startup orphan sweep** — :func:`sweep_orphan_segments` removes
  segments whose owning pid is dead (crashed sessions), and skips
  live-pid segments so two concurrent sessions sharing a machine never
  delete each other's segments;
* **ledger accounting** — segment bytes are charged to the session's
  :class:`~repro.resilience.memory.MemoryGovernor` under the ``"shm"``
  tag and released on close, so shared memory shows up in the same
  byte ledger as caches and reservations.

The ``shm.attach`` fault site fires once per parent-side segment
create, so tests can fail shared-memory setup deterministically and
assert the degradation to the serial kernels.
"""

from __future__ import annotations

import atexit
import os
import re
import threading
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resilience.context import current_context

#: Segment names carry their owner's pid: ``repro-shm-p<pid>-<hex>``.
SHM_PREFIX = "repro-shm-"

#: Session-lifetime arena segments (:mod:`repro.parallel.arena`) use a
#: distinct prefix: same pid-tagging and sweep rules, but leak tests
#: can tell a transient group segment from an intentionally long-lived
#: arena entry.
ARENA_PREFIX = "repro-arena-"

#: Both naming schemes are owned by this module's sweeps: a segment
#: whose pid tag names a dead process is an orphan whichever lifetime
#: class it belonged to, and a live pid's segments — group-transient or
#: arena-lifetime — are never another session's to reclaim.
_PID_PATTERN = re.compile(
    "(?:" + re.escape(SHM_PREFIX) + "|" + re.escape(ARENA_PREFIX)
    + r")p(\d+)-")

#: Where POSIX shared memory appears as files (Linux). The orphan sweep
#: is a no-op elsewhere; unlink-on-exit still runs everywhere.
_SHM_DIR = "/dev/shm"

#: Live segments created by this process, swept by the atexit hook.
_LIVE: Dict[str, shared_memory.SharedMemory] = {}
_LIVE_LOCK = threading.Lock()
_LIVE_BYTES = 0
_ARENA_BYTES = 0


def _segment_name(prefix: str = SHM_PREFIX) -> str:
    return f"{prefix}p{os.getpid()}-{uuid.uuid4().hex[:16]}"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we may not clean up after."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - unknowable: assume alive
        return True
    return True


def current_shm_bytes() -> int:
    """Bytes held in live *group-transient* segments created by this
    process. Arena-lifetime segments are excluded — they persist
    between queries by design and report their footprint through
    ``TableArena.stats()`` / the ``repro_arena_bytes`` gauge — so this
    stays the between-queries leak check it always was."""
    with _LIVE_LOCK:
        return _LIVE_BYTES - _ARENA_BYTES


def _register(segment: shared_memory.SharedMemory) -> None:
    global _LIVE_BYTES, _ARENA_BYTES
    with _LIVE_LOCK:
        _LIVE[segment.name] = segment
        _LIVE_BYTES += segment.size
        if segment.name.startswith(ARENA_PREFIX):
            _ARENA_BYTES += segment.size


def _unregister(segment: shared_memory.SharedMemory) -> None:
    global _LIVE_BYTES, _ARENA_BYTES
    with _LIVE_LOCK:
        if _LIVE.pop(segment.name, None) is not None:
            _LIVE_BYTES -= segment.size
            if segment.name.startswith(ARENA_PREFIX):
                _ARENA_BYTES -= segment.size


@atexit.register
def _atexit_sweep() -> None:  # pragma: no cover - interpreter shutdown
    me = os.getpid()
    with _LIVE_LOCK:
        segments = list(_LIVE.values())
        _LIVE.clear()
    for segment in segments:
        # A forked worker inherits the parent's registry; unlinking
        # those names would tear the parent's segments down. Only the
        # pid that created a segment (it's in the name) may unlink it.
        match = _PID_PATTERN.match(segment.name)
        if match is None or int(match.group(1)) != me:
            continue
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass


def sweep_orphan_segments(directory: str = _SHM_DIR) -> int:
    """Remove shm segments owned by *dead* processes; returns count.

    Only this module's naming scheme is targeted, and a segment whose
    pid tag names a live process belongs to a concurrent session and is
    skipped. Called once per process when the first pool starts (and
    directly by tests)."""
    if not os.path.isdir(directory):
        return 0
    removed = 0
    try:
        entries = os.listdir(directory)
    except OSError:  # pragma: no cover - unreadable shm dir
        return 0
    for entry in entries:
        match = _PID_PATTERN.match(entry)
        if match is None or _pid_alive(int(match.group(1))):
            continue
        try:
            os.remove(os.path.join(directory, entry))
            removed += 1
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return removed


def create_segment(nbytes: int,
                   prefix: str = SHM_PREFIX) -> shared_memory.SharedMemory:
    """Create and register a pid-tagged segment of ``nbytes`` bytes.

    The ``shm.attach`` fault site sits before the OS call so an
    injected fault takes the same OSError path a full /dev/shm would.
    The caller owns the segment and must ``_unregister`` + unlink it;
    until then the atexit sweep covers interpreter shutdown."""
    current_context().fire("shm.attach")
    segment = shared_memory.SharedMemory(
        create=True, size=max(int(nbytes), 1), name=_segment_name(prefix))
    _register(segment)
    return segment


def release_segment(segment: shared_memory.SharedMemory) -> None:
    """Unregister, close and unlink a segment created by this process."""
    _unregister(segment)
    try:
        segment.close()
        segment.unlink()
    except OSError:  # pragma: no cover - already swept
        pass


@dataclass(frozen=True)
class ShmArraySpec:
    """A picklable handle to one array living in a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


def attach_array(spec: ShmArraySpec
                 ) -> Tuple[np.ndarray, shared_memory.SharedMemory]:
    """Child-side zero-copy view of a parent segment.

    Returns ``(array, segment)``; the caller must keep ``segment``
    alive as long as the array is used and ``close()`` (never
    ``unlink()``) it afterwards — the creating process owns the name.
    The attach is hidden from the resource tracker (this Python has no
    ``track=False``): workers share the parent's tracker process, so a
    child registering a mere attachment — or unregistering it again —
    races the parent's deterministic unlink and leaves the tracker
    confused about who owns the name. Only the creator registers."""
    from multiprocessing import resource_tracker
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        segment = shared_memory.SharedMemory(name=spec.name)
    finally:
        resource_tracker.register = original_register
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                       buffer=segment.buf)
    return array, segment


class ShmArena:
    """Parent-side owner of one group's shared-memory segments.

    ``share`` copies an existing array in; ``create`` allocates a
    writable scatter buffer. Byte totals are charged to ``governor``
    (tag ``"shm"``) and released on :meth:`close`, which also unlinks
    every segment. The arena is not thread-safe; one group execution
    owns it end to end."""

    def __init__(self, governor=None) -> None:
        self._governor = governor
        self._segments: List[shared_memory.SharedMemory] = []
        self._views: Dict[str, np.ndarray] = {}
        self.bytes = 0
        self._closed = False

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        segment = create_segment(nbytes)
        self._segments.append(segment)
        if self._governor is not None:
            self._governor.charge(segment.size, "shm")
        self.bytes += segment.size
        return segment

    def share(self, array: np.ndarray) -> ShmArraySpec:
        """Copy ``array`` into a new segment; returns its handle."""
        array = np.ascontiguousarray(array)
        segment = self._new_segment(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=segment.buf)
        view[...] = array
        spec = ShmArraySpec(segment.name, array.dtype.str, array.shape)
        self._views[segment.name] = view
        return spec

    def create(self, shape: Tuple[int, ...],
               dtype: np.dtype) -> ShmArraySpec:
        """Allocate a zero-filled writable buffer (result scatter)."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape)) if shape else 1
        segment = self._new_segment(count * dtype.itemsize)
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        view[...] = 0
        spec = ShmArraySpec(segment.name, dtype.str, tuple(shape))
        self._views[segment.name] = view
        return spec

    def view(self, spec: ShmArraySpec) -> np.ndarray:
        """The parent-side view of an arena-owned segment."""
        return self._views[spec.name]

    def close(self) -> None:
        """Release views, unlink every segment, refund the ledger."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        for segment in self._segments:
            _unregister(segment)
            if self._governor is not None:
                self._governor.release(segment.size, "shm")
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already swept
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _list_segments(prefix: str, pid: Optional[int]) -> List[str]:
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    pid = os.getpid() if pid is None else pid
    tag = f"{prefix}p{pid}-"
    try:
        return sorted(e for e in os.listdir(_SHM_DIR)
                      if e.startswith(tag))
    except OSError:  # pragma: no cover - unreadable shm dir
        return []


def owned_segments(pid: Optional[int] = None) -> List[str]:
    """Group-transient segment names in ``/dev/shm`` tagged with ``pid``
    (defaults to this process) — used by leak tests; [] where
    unsupported. Arena-lifetime segments are intentionally excluded
    (they outlive the group); see :func:`arena_segments`."""
    return _list_segments(SHM_PREFIX, pid)


def arena_segments(pid: Optional[int] = None) -> List[str]:
    """Arena-lifetime segment names tagged with ``pid`` — the session
    arena's entries, which persist between queries and must vanish only
    on session close (or the orphan sweep once the pid dies)."""
    return _list_segments(ARENA_PREFIX, pid)
