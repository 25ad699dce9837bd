"""Spill evicted structures to disk and reload them on the next hit.

Shi & Wang (*Support Aggregate Analytic Window Function over Large Data
by Spilling*) make byte-budgeted index stores viable beyond RAM by
spooling to disk — but only with disciplined failure handling around the
spill boundary. Eviction from the
:class:`~repro.cache.store.StructureCache` optionally writes merge sort
trees in the existing :mod:`repro.mst.persist` ``.npz`` format instead
of discarding them, and the next acquire of the same key transparently
reloads instead of rebuilding. The I/O path is hardened:

* **atomic writes** — each spill goes to ``<name>.tmp.npz`` and is
  ``os.replace``d into place as ``<name>.npz``, so a crash mid-write
  never leaves a half-written spill file where a valid one is expected;
* **checksums** — a CRC32 (``zlib.crc32`` over the full ``.npz`` byte
  stream) is recorded at write time and verified before every reload;
  mismatches raise :class:`~repro.errors.SpillCorruptionError`, which
  the cache answers by rebuilding from source data;
* **bounded retries** — transient ``OSError`` on write or read is
  retried with exponential backoff on the active query's pluggable
  clock; retries abort early when the next sleep would outlive the
  query's deadline (corruption is deterministic and is *not* retried);
* **circuit breakers** — when the active
  :class:`~repro.resilience.context.ExecutionContext` carries a breaker
  registry, ``spill.write`` / ``spill.read`` breakers fail persistent
  I/O trouble fast with :class:`~repro.errors.CircuitOpenError`; the
  cache degrades (drop instead of spill, rebuild instead of reload)
  rather than queueing every query behind a dead disk;
* **orphan sweeping** — spill files are named
  ``repro-spill-p<pid>-*.npz``; when a caller-provided directory is
  first opened, leftover spill and temp files whose owning process is
  *dead* are removed. Files tagged with a live pid are left alone, so
  two sessions (or two processes) sharing one spill directory never
  delete each other's files at startup. Self-owned temp directories
  are additionally registered with ``atexit`` so a normal interpreter
  shutdown cannot leak them.

Only merge sort trees whose aggregate annotations are numpy arrays (or
absent) are spillable — the same restriction :func:`repro.mst.persist.
save_tree` enforces. The (tiny) :class:`~repro.mst.aggregates.
AggregateSpec` is kept in memory alongside the spill path and re-attached
on reload, so reloaded trees answer :meth:`~repro.mst.tree.MergeSortTree.
aggregate` queries identically.

Fault-injection sites (see :mod:`repro.resilience.faults`):
``spill.write`` fires once per write attempt and ``spill.read`` once
per read attempt — so retry behaviour is directly testable.
"""

from __future__ import annotations

import atexit
import glob
import os
import re
import shutil
import tempfile
import uuid
import zlib
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import SpillCorruptionError
from repro.resilience.context import current_context
from repro.resilience.guard import breaker_allow, breaker_failure

_SPILL_PREFIX = "repro-spill-"

#: Spill files carry their owner's pid: ``repro-spill-p<pid>-<hex>.npz``.
_PID_PATTERN = re.compile(re.escape(_SPILL_PREFIX) + r"p(\d+)-")


def _spill_name() -> str:
    """A fresh pid-tagged spill file stem (no extension)."""
    return f"{_SPILL_PREFIX}p{os.getpid()}-{uuid.uuid4().hex}"


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


def can_spill(structure: Any) -> bool:
    """Whether :class:`SpillManager` can round-trip ``structure``."""
    from repro.mst.tree import MergeSortTree

    if not isinstance(structure, MergeSortTree):
        return False
    return all(prefix.dtype != object
               for prefix in structure.levels.agg_prefix)


def _file_crc32(path: str) -> int:
    """CRC32 of a file's full byte stream, computed in chunks."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def sweep_orphans(directory: str) -> int:
    """Remove leftover spill artefacts in ``directory``; returns count.

    Targets only this module's naming scheme (``repro-spill-*.npz`` and
    their ``.tmp`` siblings), so unrelated files in a shared directory
    are never touched. Spill files are pid-tagged
    (``repro-spill-p<pid>-…``); a file whose owning process is still
    alive belongs to a *concurrent* session sharing the directory and
    is skipped — only files from dead processes (and legacy untagged
    files, which no live manager can own) are orphans. This is what
    lets two sessions point at one spill directory without the second
    one's startup sweep deleting the first one's live spill files.
    """
    removed = 0
    for path in glob.glob(os.path.join(directory, f"{_SPILL_PREFIX}*.npz")):
        match = _PID_PATTERN.match(os.path.basename(path))
        if match is not None and _pid_alive(int(match.group(1))):
            continue
        try:
            os.remove(path)
            removed += 1
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return removed


class SpillManager:
    """Owns a spill directory and the save/load round-trip.

    ``max_retries`` bounds *additional* attempts after the first for
    transient I/O errors; ``backoff`` is the initial sleep between
    attempts (doubled each retry). Backoff sleeps run on the active
    query's pluggable clock — a simulated clock completes them
    instantly while still "taking" simulated time — unless ``sleep``
    overrides them outright.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_retries: int = 2, backoff: float = 0.01,
                 sleep: Optional[Callable[[float], None]] = None) -> None:
        self._directory = directory
        self._owned = directory is None
        self._created = False
        self.bytes_written = 0
        self.bytes_read = 0
        self.max_retries = max_retries
        self.backoff = backoff
        self._sleep = sleep
        self._checksums: Dict[str, int] = {}
        self.retries = 0       # transient-I/O retry attempts taken
        self.orphans_swept = 0

    @property
    def directory(self) -> str:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="repro-spill-")
            self._created = True
            atexit.register(self._atexit_cleanup, self._directory)
        elif not self._created:
            os.makedirs(self._directory, exist_ok=True)
            self.orphans_swept += sweep_orphans(self._directory)
            self._created = True
        return self._directory

    @staticmethod
    def _atexit_cleanup(directory: str) -> None:
        shutil.rmtree(directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def spill(self, structure: Any) -> Tuple[str, Any]:
        """Write ``structure`` to disk; returns ``(path, meta)`` where
        ``meta`` carries state the on-disk format cannot (the aggregate
        spec). Raises ``ValueError`` for unspillable structures — check
        :func:`can_spill` first — and ``OSError`` when every write
        attempt failed."""
        from repro.mst.persist import save_tree

        if not can_spill(structure):
            raise ValueError(
                f"{type(structure).__name__} cannot be spilled to disk")
        ctx = current_context()
        breaker = ctx.breaker("spill.write")
        # Open breaker: fail fast with CircuitOpenError; the cache
        # degrades the eviction to a drop.
        breaker_allow(ctx, breaker)
        name = _spill_name()
        path = os.path.join(self.directory, f"{name}.npz")
        # numpy appends ".npz" to foreign suffixes, so the temp file must
        # keep the extension: <name>.tmp.npz -> atomic rename -> <name>.npz
        tmp = os.path.join(self.directory, f"{name}.tmp.npz")

        def write_once() -> None:
            current_context().fire("spill.write")
            try:
                save_tree(structure, tmp)
                self._checksums[path] = _file_crc32(tmp)
                os.replace(tmp, path)
            except BaseException:
                self._checksums.pop(path, None)
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise

        tracer = ctx.tracer
        span = tracer.span("spill.write") if tracer.enabled else None
        try:
            self._with_retries(write_once)
        except OSError:
            # Retries exhausted (or abandoned for the deadline): one
            # persistent-failure strike against the write breaker.
            breaker_failure(ctx, breaker)
            raise
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if breaker is not None:
            breaker.record_success()
        nbytes = os.path.getsize(path)
        self.bytes_written += nbytes
        ctx.telemetry.count_spill_write(nbytes)
        if span is not None:
            span.annotate(bytes=nbytes)
        return path, structure.aggregate_spec

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self, path: str, meta: Any):
        """Reload a spilled tree, verify its checksum and re-attach its
        aggregate spec. Raises :class:`~repro.errors.SpillCorruptionError`
        for checksum mismatches or undecodable files (not retried) and
        ``OSError`` when transient reads kept failing."""
        from repro.mst.persist import load_tree

        ctx = current_context()
        breaker = ctx.breaker("spill.read")
        # Open breaker: fail fast; the cache rebuilds from source.
        breaker_allow(ctx, breaker)

        def read_once():
            current_context().fire("spill.read")
            expected = self._checksums.get(path)
            if expected is not None:
                actual = _file_crc32(path)
                if actual != expected:
                    raise SpillCorruptionError(
                        f"spill file {os.path.basename(path)!r} failed its "
                        f"checksum (crc32 {actual:#010x}, expected "
                        f"{expected:#010x})")
            try:
                return load_tree(path)
            except OSError:
                raise  # transient: let the retry loop handle it
            except Exception as exc:
                raise SpillCorruptionError(
                    f"spill file {os.path.basename(path)!r} could not be "
                    f"decoded: {type(exc).__name__}: {exc}") from exc

        tracer = ctx.tracer
        span = tracer.span("spill.read") if tracer.enabled else None
        try:
            tree = self._with_retries(read_once)
        except SpillCorruptionError:
            # Deterministic per-file damage, not a sign the disk is
            # down — the cache rebuilds; no breaker strike.
            raise
        except OSError:
            breaker_failure(ctx, breaker)
            raise
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if breaker is not None:
            breaker.record_success()
        try:
            nbytes = os.path.getsize(path)
        except OSError:  # pragma: no cover - file vanished post-read
            nbytes = 0
        self.bytes_read += nbytes
        ctx.telemetry.count_spill_read(nbytes)
        if span is not None:
            span.annotate(bytes=nbytes)
        tree.aggregate_spec = meta
        return tree

    def _with_retries(self, operation: Callable[[], Any]) -> Any:
        """Run ``operation``, retrying transient OSError with backoff.

        Sleeps on the active context's clock (or the injected ``sleep``
        override) and gives up retrying — re-raising the I/O error —
        when the next backoff sleep would already outlive the query's
        deadline; a checkpoint after each sleep surfaces cancellation
        mid-backoff."""
        ctx = current_context()
        delay = self.backoff
        attempt = 0
        while True:
            try:
                return operation()
            except SpillCorruptionError:
                raise  # deterministic: retrying cannot help
            except OSError:
                if attempt >= self.max_retries:
                    raise
                remaining = ctx.remaining()
                if remaining is not None and delay >= remaining:
                    # The backoff sleep alone would blow the deadline;
                    # surface the I/O failure now instead of timing
                    # out inside a sleep.
                    raise
                attempt += 1
                self.retries += 1
                ctx.record_retry()
                if self._sleep is not None:
                    self._sleep(delay)
                else:
                    ctx.clock.sleep(delay)
                ctx.checkpoint()
                delay *= 2

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def discard(self, path: str) -> None:
        """Drop one spill file (the entry was removed from the cache)."""
        self._checksums.pop(path, None)
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Remove the spill directory if this manager created it."""
        self._checksums.clear()
        if self._owned and self._created and self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._created = False
            self._directory = None
