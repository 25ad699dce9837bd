"""Shadow-result comparison against the naive oracle.

A defence against *silent* corruption — the failure mode the rest of
the resilience layer cannot see, because nothing raises.
:func:`compare_results` backs *sampled shadow verification*: the
evaluator dispatch re-answers a configurable fraction of window calls
with the naive oracle and diffs the rows. Sampling is deterministic
(see ``ExecutionContext.shadow_sample``), so a divergence found once
is found every run.

The outcome reports through the context's
:class:`~repro.resilience.context.HealthCounters` at the call site;
this module is pure checking logic with no counter side effects.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Tuple

#: Relative/absolute tolerance for float shadow comparison; summation
#: order differs between the tree evaluators and the naive oracle, so
#: exact equality would false-positive on ordinary float drift.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def values_match(fast: Any, naive: Any) -> bool:
    """One output cell from the fast evaluator vs. the naive oracle.

    ``None`` (SQL NULL) only matches ``None``; floats match within
    :data:`REL_TOL`/:data:`ABS_TOL` and NaN matches NaN (a NaN result
    means every input in the frame was NaN, which both evaluators
    agree on); everything else uses ``==``.
    """
    if fast is None or naive is None:
        return fast is None and naive is None
    if isinstance(fast, float) or isinstance(naive, float):
        f = float(fast)
        n = float(naive)
        if math.isnan(f) or math.isnan(n):
            return math.isnan(f) and math.isnan(n)
        return math.isclose(f, n, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return bool(fast == naive)


def compare_results(fast: Sequence[Any], naive: Sequence[Any]
                    ) -> Optional[Tuple[int, Any, Any]]:
    """First divergent row between two evaluator outputs, or ``None``.

    Returns ``(row_index, fast_value, naive_value)`` for the first
    mismatch; a length mismatch reports at the shorter length with the
    missing side as ``None``.
    """
    limit = min(len(fast), len(naive))
    for i in range(limit):
        if not values_match(fast[i], naive[i]):
            return (i, fast[i], naive[i])
    if len(fast) != len(naive):
        longer = fast if len(fast) > len(naive) else naive
        if len(fast) > len(naive):
            return (limit, longer[limit], None)
        return (limit, None, longer[limit])
    return None
