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
  through unconverted: running out of memory says nothing about the
  build path, so it degrades that one call without striking the
  session-wide ``structure.build`` breaker), and
* enforces ``limits.max_structure_bytes`` on the finished structure
  (raising :class:`~repro.errors.ResourceLimitError`).

:func:`fallback_call` then maps a failed call onto the matching baseline
evaluator — every function family ships a naive O(n·f) path — so the
window operator can complete the query at degraded speed instead of
failing it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from repro.errors import (
    CircuitOpenError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
    StructureBuildError,
)
from repro.resilience.context import current_context

#: Errors that mean "this strategy failed, another may work" — the only
#: ones the operator converts into a baseline fallback. Timeouts and
#: cancellations always propagate. ``CircuitOpenError`` is here because
#: an open ``structure.build`` breaker stands in for the build failures
#: that tripped it: the query degrades to the baseline evaluator
#: without re-attempting the broken build path.
FALLBACK_ERRORS = (StructureBuildError, ResourceLimitError, MemoryError,
                   CircuitOpenError)


def breaker_allow(ctx: Any, breaker: Any) -> None:
    """``breaker.allow()`` with health accounting; no-op for None."""
    if breaker is None:
        return
    try:
        breaker.allow()
    except CircuitOpenError:
        ctx.health.breaker_short_circuits += 1
        raise


def breaker_failure(ctx: Any, breaker: Any) -> None:
    """Record one failure against ``breaker``; counts a trip if it
    opened the circuit. No-op for None."""
    if breaker is not None and breaker.record_failure():
        ctx.health.breaker_trips += 1


def guarded_builder(kind: str,
                    builder: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap a structure builder with the guardrail checks."""

    def build() -> Any:
        ctx = current_context()
        ctx.checkpoint()
        breaker = ctx.breaker("structure.build")
        try:
            # allow() raises CircuitOpenError while the breaker is open
            # — which FALLBACK_ERRORS routes to the baseline evaluator.
            # It sits inside the try so an injected half-open probe
            # fault takes the breaker-failure path below.
            breaker_allow(ctx, breaker)
            # The fault site is inside the try so an injected build
            # failure takes the same StructureBuildError path a real
            # one would.
            ctx.fire("structure.build")
            structure = builder()
        except (QueryTimeoutError, QueryCancelledError,
                ResourceLimitError, CircuitOpenError, MemoryError):
            raise
        except StructureBuildError:
            breaker_failure(ctx, breaker)
            raise
        except Exception as exc:
            # Includes an injected half-open probe fault: the failure
            # re-opens the breaker before the error converts.
            breaker_failure(ctx, breaker)
            raise StructureBuildError(kind, exc) from exc
        if breaker is not None:
            breaker.record_success()
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
