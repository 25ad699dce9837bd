"""Typed, validated session and query configuration.

:class:`SessionConfig` gathers what used to be loose
:class:`~repro.sql.session.Session` keyword arguments — the memory
budget, guardrail defaults, gateway admission, verification
sampling — plus the observability switches, into one
frozen dataclass that validates at construction. A bad combination
(negative timeout, unknown priority, a shadow-verification rate
outside [0, 1]) raises :class:`~repro.errors.ConfigurationError` before any
query runs, instead of surfacing as an arbitrary failure deep inside
execution.

:class:`QueryOptions` does the same for the per-call knobs of
``Session.execute`` (timeout, cancellation token, resource limits,
priority class, tracing override).

Both are frozen so they can be shared across threads and reused across
sessions; derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import ConfigurationError

__all__ = ["SessionConfig", "QueryOptions"]

_PRIORITIES = ("interactive", "batch")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _env_int(env: Mapping[str, str], name: str) -> Optional[int]:
    raw = env.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"environment variable {name}={raw!r} is not an integer"
        ) from None


def _env_float(env: Mapping[str, str], name: str) -> Optional[float]:
    raw = env.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"environment variable {name}={raw!r} is not a number"
        ) from None


def _env_bool(env: Mapping[str, str], name: str) -> Optional[bool]:
    raw = env.get(name)
    if raw is None:
        return None
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("", "0", "false", "no", "off"):
        return False
    raise ConfigurationError(
        f"environment variable {name}={raw!r} is not a boolean")


@dataclass(frozen=True)
class SessionConfig:
    """Session-wide configuration (see module docstring).

    Field groups mirror the subsystems they configure:

    * memory governor: ``memory_budget_bytes``, the session's only
      byte budget (``None`` → ``REPRO_MEMORY_BUDGET``, unlimited when
      unset). Query reservations, cached structures and cached plans
      share its ledger; over it, both caches evict LRU entries (an
      evicted structure is dropped and rebuilt on next use);
    * guardrail defaults: ``timeout``, ``limits``;
    * gateway: ``max_concurrent``, ``max_queue``, ``queue_timeout``;
    * verification: ``verify_rate``, ``verify_seed``;
    * testing: ``faults``, ``clock``;
    * observability: ``trace`` (``None`` → ``REPRO_TRACE``),
      ``metrics``.
    """

    memory_budget_bytes: Optional[int] = None
    timeout: Optional[float] = None
    limits: Optional[Any] = None  # ResourceLimits
    faults: Optional[Any] = None  # FaultInjector
    clock: Optional[Any] = None
    max_concurrent: int = 4
    max_queue: int = 16
    queue_timeout: Optional[float] = None
    verify_rate: float = 0.0
    verify_seed: int = 0
    trace: Optional[bool] = None
    metrics: bool = True

    def __post_init__(self) -> None:
        _require(self.memory_budget_bytes is None
                 or self.memory_budget_bytes > 0,
                 f"memory_budget_bytes must be > 0, "
                 f"got {self.memory_budget_bytes}")
        _require(self.timeout is None or self.timeout > 0,
                 f"timeout must be > 0 seconds, got {self.timeout}")
        _require(self.max_concurrent >= 1,
                 f"max_concurrent must be >= 1, got {self.max_concurrent}")
        _require(self.max_queue >= 0,
                 f"max_queue must be >= 0, got {self.max_queue}")
        _require(self.queue_timeout is None or self.queue_timeout >= 0,
                 f"queue_timeout must be >= 0, got {self.queue_timeout}")
        _require(0.0 <= self.verify_rate <= 1.0,
                 f"verify_rate must be within [0, 1], "
                 f"got {self.verify_rate}")

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "SessionConfig":
        """Build a config from ``REPRO_*`` environment variables.

        Recognised: ``REPRO_MEMORY_BUDGET``, ``REPRO_TIMEOUT``,
        ``REPRO_MAX_CONCURRENT``, ``REPRO_MAX_QUEUE``,
        ``REPRO_QUEUE_TIMEOUT``,
        ``REPRO_VERIFY_RATE``, ``REPRO_VERIFY_SEED``, ``REPRO_TRACE``,
        ``REPRO_METRICS``. Unset
        variables keep their defaults; explicit ``**overrides`` win
        over the environment.
        """
        env = os.environ if env is None else env
        values: dict = {}

        def put(key: str, value: Any) -> None:
            if value is not None:
                values[key] = value

        put("memory_budget_bytes", _env_int(env, "REPRO_MEMORY_BUDGET"))
        put("timeout", _env_float(env, "REPRO_TIMEOUT"))
        put("max_concurrent", _env_int(env, "REPRO_MAX_CONCURRENT"))
        put("max_queue", _env_int(env, "REPRO_MAX_QUEUE"))
        put("queue_timeout", _env_float(env, "REPRO_QUEUE_TIMEOUT"))
        put("verify_rate", _env_float(env, "REPRO_VERIFY_RATE"))
        put("verify_seed", _env_int(env, "REPRO_VERIFY_SEED"))
        put("trace", _env_bool(env, "REPRO_TRACE"))
        put("metrics", _env_bool(env, "REPRO_METRICS"))
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes: Any) -> "SessionConfig":
        return dataclasses.replace(self, **changes)


def resolve_memory_budget(config: "SessionConfig") -> Optional[int]:
    """The effective memory budget for a session.

    An explicit ``memory_budget_bytes`` wins; unset, it falls back to
    the ``REPRO_MEMORY_BUDGET`` environment variable, so a CI leg can put
    the whole suite under a tight budget without touching every test."""
    if config.memory_budget_bytes is not None:
        return config.memory_budget_bytes
    return _env_int(os.environ, "REPRO_MEMORY_BUDGET")


@dataclass(frozen=True)
class QueryOptions:
    """Per-query execution options for ``Session.execute``.

    ``timeout``/``limits`` override the session defaults when given;
    ``token`` allows cooperative cancellation from another thread;
    ``priority`` selects the gateway admission class; ``trace``
    overrides the session's tracing switch for this one query
    (``None`` inherits it).
    """

    timeout: Optional[float] = None
    token: Optional[Any] = None  # CancellationToken
    limits: Optional[Any] = None  # ResourceLimits
    priority: str = "interactive"
    trace: Optional[bool] = None

    def __post_init__(self) -> None:
        _require(self.timeout is None or self.timeout > 0,
                 f"timeout must be > 0 seconds, got {self.timeout}")
        _require(self.priority in _PRIORITIES,
                 f"unknown priority class {self.priority!r}; expected "
                 f"one of {_PRIORITIES}")

    def replace(self, **changes: Any) -> "QueryOptions":
        return dataclasses.replace(self, **changes)
