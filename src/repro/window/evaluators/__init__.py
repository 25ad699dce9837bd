"""Window function evaluators, one module per function family."""

from repro.errors import VerificationError
from repro.resilience.context import current_context
from repro.resilience.guard import FALLBACK_ERRORS, fallback_call
from repro.window.calls import WindowCall
from repro.window.evaluators.common import (Arrays, result_dtype, to_arrays,
                                             to_list)
from repro.window.partition import PartitionView


def evaluate_call(call: WindowCall, part: PartitionView) -> Arrays:
    """Evaluate one window function over one window group.

    One contract for every family, ``mst`` or ``naive``:
    ``(values, validity)`` for the rows the view answers, in the order
    of ``part.rows`` — ``values`` an ndarray of ``len(part.rows)``
    entries, one per answered row, whose dtype is
    :func:`~repro.window.evaluators.common.result_dtype` of the call
    (fixed before evaluation; ``object`` only for strings and UDAF
    states), ``validity`` a bool mask or None when no row is NULL. The
    operator scatters both with fancy-index stores and wraps the
    finished buffers in a ``Column`` — nothing is boxed on the way. The
    ``mst`` paths build the arrays natively; the ``naive`` paths stay
    row-at-a-time reference code whose result lists :func:`_dispatch`
    converts once, with the same static dtype, so the fallback rung and
    the shadow check below cannot disagree with the fast path on type.

    ``part.n`` stays the group's size — the universe the index
    structures are built over — while only the answered rows are
    probed: ``start`` / ``end`` / ``pieces`` hold their frames, and an
    evaluator that needs a row's own position or key reads it at
    ``part.rows[i]``. Answering k rows of a group therefore costs
    the build plus k probes, on every rung: the ``naive`` fallback and
    the shadow check loop over the same k frames.

    Graceful degradation lives here so every entry point (SQL executor,
    :func:`~repro.window.operator.window_query`, direct operator use)
    gets it: when the ``mst`` path fails with a
    :data:`~repro.resilience.guard.FALLBACK_ERRORS` condition — a
    structure build error, a resource-limit hit or a ``MemoryError`` —
    the call is retried once on the ``naive`` path and the downgrade is
    recorded in the active context's health counters. Timeouts and
    cancellations always propagate.

    When the context's ``verify_rate`` is nonzero, a deterministic
    sample of call evaluations is *shadow-verified*: the
    naive oracle re-answers the same rows and any divergence raises
    :class:`~repro.errors.VerificationError` — silent corruption is
    never returned as a result. At rate 0 the check is a single
    comparison.
    """
    ctx = current_context()
    ctx.checkpoint()
    tracer = ctx.tracer
    if not tracer.enabled:
        return _evaluate_call(ctx, call, part)
    with tracer.span("probe", function=call.function,
                     family=call.family, algorithm=call.algorithm,
                     rows=len(part.rows)):
        return _evaluate_call(ctx, call, part)


def _evaluate_call(ctx, call: WindowCall, part: PartitionView) -> Arrays:
    try:
        result = _dispatch(call, part)
    except FALLBACK_ERRORS as exc:
        fallback = fallback_call(call)
        if fallback is None:
            raise
        ctx.record_fallback(
            f"{call.function}[mst] -> naive "
            f"({type(exc).__name__}: {exc})")
        if ctx.tracer.enabled:
            ctx.tracer.annotate(fallback="naive",
                                fallback_cause=type(exc).__name__)
        return _dispatch(fallback, part)
    if call.algorithm != "naive" and ctx.shadow_sample():
        _shadow_verify(ctx, call, part, result)
    return result


def _shadow_verify(ctx, call: WindowCall, part: PartitionView,
                   result: Arrays) -> None:
    """Re-answer ``call`` with the naive oracle and diff the rows."""
    from repro.resilience.verify import compare_results

    oracle = fallback_call(call)
    if oracle is None:  # pragma: no cover - guarded by the caller
        return
    mismatch = compare_results(to_list(result),
                               to_list(_dispatch(oracle, part)))
    ctx.record_verification(failed=mismatch is not None)
    if mismatch is not None:
        row, fast, slow = mismatch
        raise VerificationError(
            f"shadow verification diverged for "
            f"{call.function}[mst] at answered row {row}: "
            f"fast={fast!r} naive={slow!r}")


def _dispatch(call: WindowCall, part: PartitionView) -> Arrays:
    from repro.window.evaluators import (
        aggregates,
        distinct,
        mode,
        navigation,
        percentile,
        rank,
        value,
    )

    families = {"aggregate": aggregates, "distinct": distinct, "rank": rank,
                "percentile": percentile, "mode": mode, "value": value,
                "navigation": navigation}
    result = families[call.family].evaluate(call, part)
    if isinstance(result, list):  # a naive path
        result = to_arrays(result, result_dtype(call, part))
    return result
