"""Query results that carry their own execution record.

``Session.execute`` returns a :class:`QueryResult`: the result
:class:`~repro.table.table.Table` plus a per-query
:class:`QueryStats` (guardrail health delta, cache counts,
queue wait), the span tree when the query ran
under tracing, and :meth:`QueryResult.explain` for the annotated plan.

The wrapper is deliberately transparent: iteration, length, equality,
and attribute access all delegate to the table, so call sites written
against the old ``Table`` return type — including every pre-existing
test — keep working unchanged. (``Table.__eq__`` returns
``NotImplemented`` for non-tables, so ``table == result`` falls back to
the reflected :meth:`QueryResult.__eq__` as well.)
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.table.column import Column, DataType
from repro.wire import to_jsonable

__all__ = ["QueryStats", "QueryResult"]


class QueryStats:
    """One query's execution record (see module docstring)."""

    __slots__ = ("elapsed_seconds", "priority", "health", "cache_hits",
                 "cache_misses", "structure_builds", "structure_reuses",
                 "queue_wait_seconds", "outcome")

    def __init__(self, elapsed_seconds: float, priority: str,
                 health: Any, telemetry: Dict[str, Any],
                 outcome: str = "ok") -> None:
        self.elapsed_seconds = elapsed_seconds
        self.priority = priority
        #: Per-query :class:`~repro.resilience.context.HealthCounters`
        #: delta (this query only, not the session total).
        self.health = health
        self.outcome = outcome
        self.cache_hits = telemetry.get("cache_hits", 0)
        self.cache_misses = telemetry.get("cache_misses", 0)
        self.structure_builds = telemetry.get("structure_builds", 0)
        self.structure_reuses = telemetry.get("structure_reuses", 0)
        self.queue_wait_seconds = telemetry.get("queue_wait_seconds", 0.0)

    def to_dict(self) -> Dict[str, Any]:
        out = {name: getattr(self, name) for name in self.__slots__
               if name != "health"}
        out["health"] = (self.health.render()
                         if hasattr(self.health, "render") else [])
        return out

    def render(self) -> str:
        lines = [
            f"outcome={self.outcome} priority={self.priority} "
            f"elapsed={self.elapsed_seconds * 1000.0:.3f}ms "
            f"queue_wait={self.queue_wait_seconds * 1000.0:.3f}ms",
            f"structures: built={self.structure_builds} "
            f"reused={self.structure_reuses} "
            f"cache hits={self.cache_hits} misses={self.cache_misses}",
        ]
        if getattr(self.health, "eventful", False):
            for entry in self.health.render():
                lines.append("health: " + entry)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"QueryStats(outcome={self.outcome!r}, "
                f"elapsed={self.elapsed_seconds:.6f}s, "
                f"builds={self.structure_builds}, "
                f"reuses={self.structure_reuses})")


class QueryResult:
    """A result table plus its per-query execution record.

    Transparent table wrapper: ``len(result)``, ``for row in result``,
    ``result == table``, ``result.column(...)``, ``result.num_rows``,
    ``result.schema`` all behave exactly as on the wrapped
    :class:`~repro.table.table.Table`.
    """

    def __init__(self, table: Any, stats: QueryStats,
                 trace: Optional[Any] = None,
                 explainer: Optional[Any] = None,
                 plan: Optional[Any] = None,
                 actuals: Optional[Dict[int, Any]] = None) -> None:
        self.table = table
        self.stats = stats
        #: Root :class:`~repro.obs.trace.Span` when the query ran under
        #: tracing, else ``None``.
        self.trace = trace
        #: The :class:`~repro.sql.plan.StatementPlan` that ran, and per
        #: plan node (keyed by ``id(node)``) the span the executor
        #: opened for it — empty when the query ran untraced.
        self.plan = plan
        self.actuals = actuals or {}
        self._explainer = explainer

    # ------------------------------------------------------------------
    # table delegation
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Only called for attributes not found on the wrapper itself.
        return getattr(self.table, name)

    def __getitem__(self, name: str) -> Any:
        return self.table[name]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.table)

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, QueryResult):
            return self.table == other.table
        return self.table == other

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mutable wrapper around a mutable table

    def __repr__(self) -> str:
        return f"QueryResult({self.table!r}, stats={self.stats!r})"

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def explain(self) -> str:
        """The annotated plan for this query: the static EXPLAIN text
        plus actual per-phase timings and counts from this execution."""
        if self._explainer is None:
            return "(no plan captured for this query)"
        return self._explainer(analysis=self)

    def render_trace(self, max_children: Optional[int] = 8) -> str:
        """The span tree as an indented text tree ('' when untraced)."""
        if self.trace is None:
            return ""
        return "\n".join(self.trace.render(max_children=max_children))

    def trace_dict(self) -> Optional[Dict[str, Any]]:
        """The span tree as a JSON-able dict (None when untraced)."""
        return None if self.trace is None else self.trace.to_dict()

    # ------------------------------------------------------------------
    # wire serialization
    # ------------------------------------------------------------------
    def to_dict(self, include_trace: bool = True) -> Dict[str, Any]:
        """The full result as one JSON-safe dict.

        This is the serving tier's wire format: column names and types,
        rows as value lists, the per-query stats, and (when the query
        ran under tracing and ``include_trace`` is true) the span tree.
        ``rows`` is built by column — one JSON-safe list per column
        (:func:`_json_values`), zipped into rows — and holds the values
        :func:`repro.wire.to_jsonable` would make of each cell: DATE
        values render ISO-8601, NaN/inf become null. Only ``stats``
        and ``trace`` go through ``to_jsonable`` itself, so
        ``json.dumps(result.to_dict())`` always succeeds. Guaranteed
        round-trippable:
        ``json.loads(json.dumps(result.to_dict()))`` reproduces the
        same dict.
        """
        table = self.table
        columns = [_json_values(column) for column in table.columns]
        payload: Dict[str, Any] = {
            "columns": [f.name for f in table.schema],
            "types": [f.dtype.value for f in table.schema],
            "rows": list(map(list, zip(*columns))),
            "row_count": table.num_rows,
            "stats": to_jsonable(self.stats.to_dict()),
        }
        if include_trace:
            payload["trace"] = to_jsonable(self.trace_dict())
        return payload


def _json_values(column: Column) -> List[Any]:
    """One column as JSON-safe Python values — what
    :func:`repro.wire.to_jsonable` makes of each of its values, built
    from one :meth:`~repro.table.column.Column.to_list`: DATE as
    ISO-8601 strings (one ``isoformat`` per distinct day), non-finite
    FLOAT64 as ``None``."""
    if column.dtype is DataType.DATE:
        return column.to_list(date_render=datetime.date.isoformat)
    values = column.to_list()
    if column.dtype is DataType.FLOAT64:
        for i in np.flatnonzero(~np.isfinite(column.raw())).tolist():
            values[i] = None
    return values
