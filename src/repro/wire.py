"""Wire-format helpers: making engine values JSON-safe.

The engine's public objects are *almost* JSON-serializable, but three
value families leak through ``json.dumps``:

* numpy scalars (``np.int64`` counts in telemetry snapshots, ``np.
  float64`` aggregates stored in object columns) — numpy is an optional
  boundary the serving tier must not re-export;
* ``datetime.date`` / ``datetime.datetime`` from DATE columns;
* non-finite floats (``nan`` / ``inf``), which ``json.dumps`` emits as
  bare ``NaN`` tokens that no strict JSON parser accepts.

:func:`to_jsonable` normalises all of them recursively, so
``json.dumps(to_jsonable(x))`` succeeds for any value the engine hands
back. Dates render as ISO-8601 strings; NaN and the infinities become
``None`` (SQL NULL is the closest wire meaning).

It is a per-value walk, meant for small heterogeneous payloads:
:class:`~repro.sql.result.QueryStats` dicts, span trees, health and
metrics snapshots, and the ``default=`` hook of
:func:`repro.serve.wire.json_body`. Result rows do not pass through it:
:meth:`~repro.sql.result.QueryResult.to_dict` builds them by column,
producing the same values in one pass per column.

This module imports only the standard library (numpy is probed lazily)
so both :mod:`repro.sql` and :mod:`repro.serve` can depend on it
without cycles.
"""

from __future__ import annotations

import datetime
import math
from typing import Any

__all__ = ["to_jsonable"]


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-safe Python.

    dict keys are coerced to ``str`` (JSON objects have string keys);
    tuples and sets become lists; objects exposing ``to_dict()`` or
    ``tolist()`` (numpy arrays) are converted through it. Unknown leaf
    objects fall back to ``str(value)`` rather than failing — the wire
    contract is "always serializable", not "always lossless".
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value.isoformat()
    # numpy scalars expose .item(); arrays expose .tolist(). Probing the
    # protocol keeps this module importable without numpy.
    item = getattr(value, "item", None)
    if callable(item) and not hasattr(value, "__len__"):
        try:
            return to_jsonable(item())
        except (TypeError, ValueError):  # pragma: no cover - odd .item()
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        try:
            return to_jsonable(tolist())
        except (TypeError, ValueError):  # pragma: no cover - odd .tolist()
            pass
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_jsonable(to_dict())
    return str(value)
