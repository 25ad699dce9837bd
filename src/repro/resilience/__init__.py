"""Execution guardrails: deadlines, cancellation, limits, fault
injection and graceful degradation.

The fast path of this engine is the paper's merge-sort-tree evaluator;
this package is what makes the slow and broken paths survivable in a
long-lived serving process: per-query deadlines and cooperative
cancellation checked at batch boundaries, resource ceilings,
transparent fallback to the baseline evaluators,
and a deterministic fault-injection harness that makes all of it
testable. See DESIGN.md ("Resilience layer") for the full model.
"""

from repro.resilience.context import (
    AMBIENT,
    CancellationToken,
    ExecutionContext,
    HealthCounters,
    NO_LIMITS,
    ResourceLimits,
    SimulatedClock,
    SystemClock,
    activate,
    current_context,
)
from repro.resilience.faults import NO_FAULTS, FaultInjector
from repro.resilience.gateway import PRIORITIES, GatewayStats, QueryGateway
from repro.resilience.guard import (
    FALLBACK_ERRORS,
    fallback_call,
    guarded_builder,
)
from repro.resilience.verify import (
    compare_results,
    values_match,
)

__all__ = [
    "AMBIENT",
    "CancellationToken",
    "ExecutionContext",
    "FALLBACK_ERRORS",
    "FaultInjector",
    "GatewayStats",
    "HealthCounters",
    "NO_FAULTS",
    "NO_LIMITS",
    "PRIORITIES",
    "QueryGateway",
    "ResourceLimits",
    "SimulatedClock",
    "SystemClock",
    "activate",
    "compare_results",
    "current_context",
    "fallback_call",
    "guarded_builder",
    "values_match",
]
