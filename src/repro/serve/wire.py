"""HTTP wire mapping: exceptions → status codes, JSON envelopes.

One table maps the engine's typed errors (every one carries a stable
``code`` attribute, see :mod:`repro.errors`) onto HTTP semantics:

======================  ======  =================================
exception               status  meaning on the wire
======================  ======  =================================
QueryRejectedError      429     shed — back off and retry
TenantRateLimitError    429     per-tenant token bucket empty
TenantQuotaError        429     per-tenant concurrency quota full
CircuitOpenError        503     dependency failing — retry later
MemoryPressureError     503     memory governor shed — retry later
QueryTimeoutError       408     deadline expired mid-query
QueryCancelledError     499     request abandoned (nginx idiom)
ResourceLimitError      422     query exceeds per-query limits
ParameterBindingError   422     bad prepared-statement params
SqlError                400     statement unparseable / invalid
ConfigurationError      400     bad request fields
other ReproError        500     engine failure
======================  ======  =================================

Responses are uniform JSON: ``{"error": {"code", "message", "type"}}``
(429/503 additionally set ``Retry-After``). Clients dispatch on
``code``, never on ``message``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    MemoryPressureError,
    ParameterBindingError,
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
    ReproError,
    ResourceLimitError,
    SqlError,
)
from repro.wire import to_jsonable

__all__ = ["error_response", "json_body", "status_for"]

_STATUS_BY_TYPE: Tuple[Tuple[type, int], ...] = (
    # Order matters: most-derived first.
    (QueryRejectedError, 429),
    (CircuitOpenError, 503),
    (MemoryPressureError, 503),
    (QueryTimeoutError, 408),
    (QueryCancelledError, 499),
    (ResourceLimitError, 422),
    (ParameterBindingError, 422),  # client bug, not a bad statement
    (SqlError, 400),
    (ConfigurationError, 400),
    (ReproError, 500),
)


def status_for(exc: BaseException) -> int:
    """The HTTP status for an engine exception (500 for the unknown)."""
    for exc_type, status in _STATUS_BY_TYPE:
        if isinstance(exc, exc_type):
            return status
    return 500


def error_response(exc: BaseException) -> Tuple[int, Dict[str, str],
                                                Dict[str, Any]]:
    """``(status, extra_headers, body)`` for an exception."""
    status = status_for(exc)
    body = {"error": {
        "code": getattr(exc, "code", "INTERNAL"),
        "message": str(exc),
        "type": type(exc).__name__,
    }}
    headers: Dict[str, str] = {}
    if status in (429, 503):
        retry_after = getattr(exc, "retry_after", 0.0) or 1.0
        headers["Retry-After"] = str(max(int(round(retry_after)), 1))
    return status, headers, body


def json_body(payload: Any) -> bytes:
    """Serialize a response payload as compact, strict UTF-8 JSON.

    One ``json.dumps`` pass: plain values encode natively, and
    ``default=to_jsonable`` turns what it cannot encode (numpy scalars,
    dates, sets, objects with ``to_dict()``) into what
    :func:`repro.wire.to_jsonable` makes of them. Only when that pass
    raises — a NaN/inf somewhere (``allow_nan=False``), or a dict key
    that is neither ``str``, ``int``, ``float``, ``bool`` nor ``None`` —
    does the whole payload go through ``to_jsonable`` first, which maps
    non-finite floats to ``null`` and keys through ``str()``.

    ``bool`` and ``None`` dict keys encode as JSON does them,
    ``"true"`` / ``"false"`` / ``"null"`` (``str()`` would give
    ``"True"`` / ``"None"``). No server payload has such a key.
    """
    try:
        text = json.dumps(payload, allow_nan=False, separators=(",", ":"),
                          default=to_jsonable)
    except (ValueError, TypeError):
        text = json.dumps(to_jsonable(payload), allow_nan=False,
                          separators=(",", ":"))
    return text.encode("utf-8")


def parse_json_body(data: bytes) -> Dict[str, Any]:
    """Decode a request body; raises ConfigurationError on bad JSON."""
    if not data:
        raise ConfigurationError("request body must be a JSON object")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")
    return payload


def field_str(payload: Dict[str, Any], name: str,
              default: Optional[str] = None,
              required: bool = False) -> Optional[str]:
    """A string field from a decoded body, type-checked."""
    value = payload.get(name, default)
    if value is None:
        if required:
            raise ConfigurationError(f"missing required field {name!r}")
        return None
    if not isinstance(value, str):
        raise ConfigurationError(f"field {name!r} must be a string")
    return value


def field_number(payload: Dict[str, Any], name: str) -> Optional[float]:
    """A numeric field from a decoded body, type-checked."""
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"field {name!r} must be a number")
    return float(value)


def field_bool(payload: Dict[str, Any], name: str,
               default: bool = False) -> bool:
    """A boolean field from a decoded body, type-checked."""
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ConfigurationError(f"field {name!r} must be a boolean")
    return value
