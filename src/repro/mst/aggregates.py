"""Aggregate state specifications for annotated merge sort trees.

Section 4.3 of the paper computes framed DISTINCT aggregates by annotating
every tree position with the aggregate of all entries up to it *within its
sorted run*, then combining one partial state per covering run. Crucially,
the algorithm needs only a *merge* function — never an inverse — which is
what makes it applicable to arbitrary user-defined aggregates.

An :class:`AggregateSpec` bundles:

* ``identity`` — the state of an empty input,
* ``lift`` — turn one input value into a state,
* ``merge`` — combine two states,
* ``finalize`` — turn a state into the SQL result value,
* optionally ``prefix_numpy`` — a vectorised "running prefix within each
  run" kernel used by the numpy build path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


def _segmented_cumulative(values: np.ndarray, run_length: int,
                          op: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """Apply a cumulative numpy op independently within consecutive runs.

    ``values`` is reshaped into rows of ``run_length`` (the final partial
    run is processed separately), so ``op`` must accept an ``axis``
    argument (``np.cumsum``, ``np.minimum.accumulate``, ...).
    """
    n = len(values)
    full = (n // run_length) * run_length
    out = np.empty_like(values)
    if full:
        out[:full] = op(values[:full].reshape(-1, run_length), 1).reshape(-1)
    if full < n:
        out[full:] = op(values[full:][None, :], 1)[0]
    return out


@dataclass(frozen=True)
class AggregateSpec:
    """A mergeable (distributive or algebraic) aggregate."""

    name: str
    identity: Any
    lift: Callable[[Any], Any]
    merge: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]
    prefix_numpy: Optional[Callable[[np.ndarray, int], np.ndarray]] = None

    def merge_many(self, states: Any) -> Any:
        """Fold an iterable of states into one."""
        result = self.identity
        for state in states:
            result = self.merge(result, state)
        return result


def _sum_prefix(values: np.ndarray, run_length: int) -> np.ndarray:
    return _segmented_cumulative(values, run_length, np.cumsum)


def _min_prefix(values: np.ndarray, run_length: int) -> np.ndarray:
    return _segmented_cumulative(values, run_length,
                                 lambda a, axis: np.minimum.accumulate(a, axis=axis))


def _max_prefix(values: np.ndarray, run_length: int) -> np.ndarray:
    return _segmented_cumulative(values, run_length,
                                 lambda a, axis: np.maximum.accumulate(a, axis=axis))


SUM = AggregateSpec(
    name="sum",
    identity=None,
    lift=lambda v: v,
    merge=lambda a, b: b if a is None else (a if b is None else a + b),
    finalize=lambda s: s,
    prefix_numpy=_sum_prefix,
)

COUNT = AggregateSpec(
    name="count",
    identity=0,
    lift=lambda v: 1,
    merge=lambda a, b: a + b,
    finalize=lambda s: s,
    prefix_numpy=lambda values, run_length: _sum_prefix(
        np.ones(len(values), dtype=np.int64), run_length),
)

MIN = AggregateSpec(
    name="min",
    identity=None,
    lift=lambda v: v,
    merge=lambda a, b: b if a is None else (a if b is None else min(a, b)),
    finalize=lambda s: s,
    prefix_numpy=_min_prefix,
)

MAX = AggregateSpec(
    name="max",
    identity=None,
    lift=lambda v: v,
    merge=lambda a, b: b if a is None else (a if b is None else max(a, b)),
    finalize=lambda s: s,
    prefix_numpy=_max_prefix,
)


def _avg_merge(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (a[0] + b[0], a[1] + b[1])


AVG = AggregateSpec(
    name="avg",
    identity=None,
    lift=lambda v: (v, 1),
    merge=_avg_merge,
    finalize=lambda s: None if s is None or s[1] == 0 else s[0] / s[1],
)


def make_udaf(name: str, identity: Any, lift: Callable[[Any], Any],
              merge: Callable[[Any, Any], Any],
              finalize: Callable[[Any], Any] = lambda s: s) -> AggregateSpec:
    """Define a user-defined aggregate for use with DISTINCT framing.

    Only a merge function is required; no inverse/retract function — the
    key practical benefit called out in Section 4.3. The tree merges the
    states of a frame's covering runs in their peel order, not in frame
    order, so ``merge`` must be associative and commutative, with
    ``identity`` its neutral state.
    """
    return AggregateSpec(name=name, identity=identity, lift=lift,
                         merge=merge, finalize=finalize)
