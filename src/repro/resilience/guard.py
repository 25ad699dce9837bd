"""Guarded index-structure builds and the fallback decision.

Cao et al. (*Optimization of Analytic Window Functions*) argue for
keeping several evaluation strategies live so the engine can pick
another plan when one misbehaves; this module is the seam where that
happens for structure builds. Every build routed through
:meth:`repro.window.evaluators.common.CallInput.structure` is wrapped by
:func:`guarded_builder`, which

* checkpoints the active :class:`~repro.resilience.context.
  ExecutionContext` (a deadline can expire between builds),
* fires the ``structure.build`` fault-injection site,
* converts unexpected build failures into a typed
  :class:`~repro.errors.StructureBuildError` (a ``MemoryError`` passes
  through unconverted), and
* enforces ``limits.max_structure_bytes`` on the finished structure
  (raising :class:`~repro.errors.ResourceLimitError`).

:func:`fallback_call` then maps a failed call onto the matching baseline
evaluator — every function family ships a naive O(n·f) path — so the
window operator can complete the query at degraded speed instead of
failing it. A failed build degrades only the call it belongs to: the
next call tries the build again, so a healed builder is back on the
indexed path at once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
    StructureBuildError,
)
from repro.resilience.context import current_context

#: Errors that mean "this strategy failed, another may work" — the only
#: ones the operator converts into a baseline fallback. Timeouts and
#: cancellations always propagate.
FALLBACK_ERRORS = (StructureBuildError, ResourceLimitError, MemoryError)


def guarded_builder(kind: str,
                    builder: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap a structure builder with the guardrail checks."""

    def build() -> Any:
        ctx = current_context()
        ctx.checkpoint()
        try:
            # The fault site is inside the try so an injected build
            # failure takes the same StructureBuildError path a real
            # one would.
            ctx.fire("structure.build")
            structure = builder()
        except (QueryTimeoutError, QueryCancelledError,
                ResourceLimitError, StructureBuildError, MemoryError):
            raise
        except Exception as exc:
            raise StructureBuildError(kind, exc) from exc
        governor = getattr(ctx, "memory", None)
        if ctx.limits.max_structure_bytes is not None or (
                governor is not None and governor.limited):
            from repro.cache.budget import structure_bytes
            nbytes = structure_bytes(structure)
            ctx.guard_structure_bytes(kind, nbytes)
            if governor is not None:
                # A structure bigger than the whole session budget can
                # never be held: MemoryPressureError is a
                # ResourceLimitError, so FALLBACK_ERRORS routes it to
                # the naive evaluator like any oversized build.
                governor.guard_structure(kind, nbytes)
        ctx.telemetry.count_structure_build()
        return structure

    return build


def fallback_call(call: Any) -> Optional[Any]:
    """The ``naive`` variant of ``call``, or None if already naive.

    Every family implements ``algorithm="naive"``, so the fallback is
    total: each family's ``mst`` path (merge sort tree, segment tree,
    DENSE_RANK index or range-mode index) degrades to the naive per-frame
    recomputation.
    """
    if call.algorithm == "naive":
        return None
    return replace(call, algorithm="naive")
