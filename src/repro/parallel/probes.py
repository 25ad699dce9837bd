"""Probe-kernel indirection: serial vs process-fanned batched probes.

The paper's Section 5.2 parallelism shares one read-only merge sort
tree between workers and fans the per-row probe arrays out as morsels. Evaluators reach the vectorised probe kernels
(:mod:`repro.mst.vectorized`) through the :class:`ProbeKernels` handle
on their :class:`~repro.window.partition.PartitionView` instead of
calling them directly, so the scheduler can swap the serial kernels for
:class:`ProcessProbes` without the evaluators knowing: same arrays in,
same arrays out, the only difference is where the descents ran.

Serial is the default (:data:`SERIAL_PROBES`) and is a zero-overhead
pass-through.

:class:`ProcessProbes` is the multicore variant: the tree's arrays
(level 0, the top-level key counts, the bridges and any prefix
aggregates) are serialized once into the session's shared-memory table
arena (workers
attach and cache them by token), the per-row probe arrays travel
through transient shm segments, and row ranges run on the supervised
process pool with its retry/quarantine ladder — a lost range is
recomputed serially by the parent on exactly its rows, so results stay
bit-identical. Trees that cannot be shared
(object-typed prefix aggregates) run the serial kernels with a
recorded reason, as does a broken worker pool mid-group.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.mst.build import TreeLevels
from repro.mst.vectorized import (
    aggregate_dtype,
    batched_aggregate,
    batched_count,
    batched_select,
)


class ProbeKernels:
    """Serial pass-through to the vectorised probe kernels."""

    #: Whether probes fan out to the worker pool (EXPLAIN reporting).
    parallel = False

    def count(self, levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
              key_hi: np.ndarray,
              key_lo: Optional[np.ndarray] = None) -> np.ndarray:
        return batched_count(levels, lo, hi, key_hi, key_lo=key_lo)

    def select(self, levels: TreeLevels, k: np.ndarray, key_lo: np.ndarray,
               key_hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``key_lo``/``key_hi``: ``(pieces, m)`` key ranges per query."""
        return batched_select(levels, k, key_lo, key_hi)

    def aggregate(self, levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
                  key_hi: np.ndarray, kind: str) -> np.ndarray:
        return batched_aggregate(levels, lo, hi, key_hi, kind)


#: Shared serial kernel set; stateless, safe to share between threads.
SERIAL_PROBES = ProbeKernels()


def probe_range(levels: TreeLevels, op: str, inputs: Dict[str, np.ndarray],
                outputs: List[np.ndarray], lo: int, hi: int,
                agg_kind: Optional[str]) -> None:
    """Run queries ``[lo, hi)`` of one probe batch into ``outputs``.

    The one body behind a worker's probe task and the parent's serial
    recompute of a quarantined range: rows outside the range are
    untouched, so ranges compose and a re-run rewrites the same values.
    Queries lie along the last axis (``select`` pieces are stacked in
    front of it)."""
    args = {name: array[..., lo:hi] for name, array in inputs.items()}
    if op == "count":
        outputs[0][lo:hi] = batched_count(
            levels, args["lo"], args["hi"], args["key_hi"],
            key_lo=args.get("key_lo"))
    elif op == "aggregate":
        outputs[0][lo:hi] = batched_aggregate(
            levels, args["lo"], args["hi"], args["key_hi"], agg_kind)
    elif op == "select":
        outputs[0][lo:hi], outputs[1][lo:hi] = batched_select(
            levels, args["k"], args["key_lo"], args["key_hi"])
    else:  # pragma: no cover - the parent never sends unknown ops
        raise ValueError(f"unknown probe op {op!r}")


def _level_arrays(levels: TreeLevels) -> List[Any]:
    """Every array of the tree, in :class:`LevelsHandle` order: level 0,
    the top-level key counts, bridge anchors, bridges, then prefix
    aggregates."""
    return (list(levels.keys) + [levels.top.table] + list(levels.anchors)
            + list(levels.bridges) + list(levels.agg_prefix))


def _shareable_levels(levels: TreeLevels) -> bool:
    """Whether every level array can live in a plain shm segment."""
    for array in _level_arrays(levels):
        if array is None:
            continue
        if not (isinstance(array, np.ndarray)
                and array.dtype.kind in "biuf"):
            return False
    return True


class ProcessProbes(ProbeKernels):
    """Fan per-row probe arrays out over the supervised process pool.

    Created per probe-fan group by
    :meth:`~repro.parallel.scheduler.WindowScheduler.process_probes`;
    the operator releases the arena lease after the group. ``fanned`` counts probe
    batches that actually ran on workers; ``fallback_reason`` /
    ``broken_reason`` record why later batches stopped fanning (the
    operator folds them into the group decision's reason)."""

    parallel = True

    def __init__(self, scheduler, lease, task_size: int,
                 min_rows: int = 8_192, governor=None) -> None:
        self._scheduler = scheduler
        self._lease = lease
        self._task_size = max(int(task_size), 1)
        self._min_rows = max(int(min_rows), 1)
        self._governor = governor
        self._seq = 0
        self.fanned = 0
        self.fallback_reason: Optional[str] = None
        self.broken_reason: Optional[str] = None

    # -- degradation ---------------------------------------------------
    def _note_unshareable(self) -> None:
        if self.fallback_reason is None:
            self.fallback_reason = ("tree levels not shm-shareable "
                                    "(object-typed prefix aggregates)")

    # -- arena plumbing ------------------------------------------------
    def _levels_handle(self, levels: TreeLevels):
        """Arena-backed :class:`LevelsHandle` for ``levels``; None when
        the tree is not shareable. Pins the entry on the group lease."""
        from repro.parallel.procworker import LevelsHandle

        token = getattr(levels, "_repro_arena_token", None)
        if token is None:
            if not _shareable_levels(levels):
                return None
            token = uuid.uuid4().hex
            levels._repro_arena_token = token

        def build():
            if not _shareable_levels(levels):  # pragma: no cover
                return None
            return _level_arrays(levels)

        entry = self._lease.get(("levels", token), build)
        if entry is None:
            return None
        height = levels.height
        specs = entry.specs
        return LevelsHandle(
            token=token,
            fanout=levels.fanout,
            sample_every=levels.sample_every,
            keys=specs[:1],
            top=specs[1],
            top_low=levels.top.low,
            anchors=specs[2:2 + height],
            bridges=specs[2 + height:2 + 2 * height],
            agg_prefix=specs[2 + 2 * height:])

    # -- the fan -------------------------------------------------------
    def _fan(self, levels: TreeLevels, op: str,
             inputs: Dict[str, np.ndarray], out_dtypes: List[Any],
             rows: int, agg_kind: Optional[str] = None
             ) -> Optional[Tuple[np.ndarray, ...]]:
        """Run one probe batch on the pool; ``None`` means the caller
        must degrade (pool broke / shm failed / tree unshareable)."""
        from repro.errors import WorkerPoolError
        from repro.parallel.procworker import ProcProbeJob, ProcProbeTask
        from repro.parallel.shm import ShmArena

        arena = ShmArena(governor=self._governor)
        try:
            handle = self._levels_handle(levels)
            if handle is None:
                self._note_unshareable()
                return None
            in_specs = tuple((name, arena.share(array))
                             for name, array in inputs.items())
            out_specs = tuple(arena.create((rows,), dtype)
                              for dtype in out_dtypes)
            self._seq += 1
            job = ProcProbeJob(
                probe_id=f"p{self._seq}-{uuid.uuid4().hex[:8]}",
                op=op, levels=handle, inputs=in_specs,
                outputs=out_specs, agg_kind=agg_kind)
            tasks = [ProcProbeTask(i, lo, min(lo + self._task_size, rows))
                     for i, lo in enumerate(
                         range(0, rows, self._task_size))]
            lost = self._scheduler.run_process_tasks(job, tasks)
            views = [arena.view(spec) for spec in out_specs]
            for task in lost:
                # Quarantined ranges recompute serially on the parent —
                # same kernels, exactly these rows, bit-identical.
                probe_range(levels, op, inputs, views,
                            task.lo, task.hi, agg_kind)
            self.fanned += 1
            return tuple(view.copy() for view in views)
        except WorkerPoolError as exc:
            self._scheduler.mark_process_broken()
            self.broken_reason = f"process pool broken ({exc})"
            return None
        except OSError as exc:
            self.broken_reason = f"shared-memory setup failed ({exc})"
            return None
        finally:
            arena.close()

    # -- kernel interface ----------------------------------------------
    def _fans(self, rows: int) -> bool:
        """Whether a batch of ``rows`` probes goes to the pool; short
        batches and everything after a pool/shm failure stay on the
        serial kernels."""
        return rows >= self._min_rows and self.broken_reason is None

    def count(self, levels: TreeLevels, lo: np.ndarray, hi: np.ndarray,
              key_hi: np.ndarray,
              key_lo: Optional[np.ndarray] = None) -> np.ndarray:
        if self._fans(len(lo)):
            inputs = {"lo": np.asarray(lo), "hi": np.asarray(hi),
                      "key_hi": np.asarray(key_hi)}
            if key_lo is not None:
                inputs["key_lo"] = np.asarray(key_lo)
            result = self._fan(levels, "count", inputs,
                               [np.int64], len(lo))
            if result is not None:
                return result[0]
        return batched_count(levels, lo, hi, key_hi, key_lo=key_lo)

    def select(self, levels: TreeLevels, k: np.ndarray,
               key_lo: np.ndarray, key_hi: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        if self._fans(len(k)):
            inputs = {"k": np.asarray(k), "key_lo": np.asarray(key_lo),
                      "key_hi": np.asarray(key_hi)}
            result = self._fan(levels, "select", inputs,
                               [np.int64, np.int64], len(k))
            if result is not None:
                return result[0], result[1]
        return batched_select(levels, k, key_lo, key_hi)

    def aggregate(self, levels: TreeLevels, lo: np.ndarray,
                  hi: np.ndarray, key_hi: np.ndarray,
                  kind: str) -> np.ndarray:
        if self._fans(len(lo)):
            out_dtype = aggregate_dtype(levels, kind)
            inputs = {"lo": np.asarray(lo), "hi": np.asarray(hi),
                      "key_hi": np.asarray(key_hi)}
            result = self._fan(levels, "aggregate", inputs,
                               [out_dtype], len(lo), agg_kind=kind)
            if result is not None:
                return result[0]
        return batched_aggregate(levels, lo, hi, key_hi, kind)
