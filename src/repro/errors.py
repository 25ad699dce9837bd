"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Every subclass carries a stable, machine-readable ``code`` class
    attribute. Wire layers (the :mod:`repro.serve` HTTP front end, any
    future client) map exceptions to protocol responses by this code
    instead of string-matching messages, so messages stay free to
    change. Codes are SCREAMING_SNAKE_CASE and never reused for a
    different meaning once published."""

    code = "INTERNAL"


class ConfigurationError(ReproError, ValueError):
    """An invalid session or query configuration was supplied.

    Raised at :class:`~repro.sql.config.SessionConfig` /
    :class:`~repro.sql.config.QueryOptions` construction time, so a bad
    combination (negative timeout, unknown priority, a shadow
    verification rate outside [0, 1]) fails before any query runs
    rather than deep inside execution. Also a :class:`ValueError` so
    pre-dataclass call sites that caught ``ValueError`` keep working."""

    code = "INVALID_CONFIG"


class SchemaError(ReproError):
    """A table or column was used in a way incompatible with its schema."""

    code = "SCHEMA"


class TypeMismatchError(SchemaError):
    """A value of the wrong type was inserted into a typed column."""

    code = "TYPE_MISMATCH"


class FrameError(ReproError):
    """An invalid window frame specification was supplied."""

    code = "INVALID_FRAME"


class WindowFunctionError(ReproError):
    """A window function was invoked with invalid arguments or clauses."""

    code = "INVALID_WINDOW_FUNCTION"


class SqlError(ReproError):
    """Base class for errors from the SQL front end."""

    code = "SQL"


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed; ``position`` is
    the character offset of the fault (-1 when unknown)."""

    code = "SQL_SYNTAX"

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position

    def locate(self, sql: str) -> "SqlSyntaxError":
        """Append ``at line L, column C`` (both 1-based) for
        ``position`` in ``sql`` to the message; returns ``self``."""
        if 0 <= self.position <= len(sql):
            line = sql.count("\n", 0, self.position) + 1
            column = self.position - sql.rfind("\n", 0, self.position)
            self.args = (f"{self.args[0]} at line {line}, "
                         f"column {column}",)
        return self


class SqlAnalysisError(SqlError):
    """The SQL text parsed but failed semantic analysis.

    This mirrors the paper's observation (Section 2.4) that grammars such
    as PostgreSQL's accept DISTINCT / ORDER BY in every function call and
    reject unsupported combinations only during semantic analysis.
    """

    code = "SQL_ANALYSIS"


class ParameterBindingError(SqlError):
    """A prepared-statement parameter list failed validation.

    Raised at prepare time (mixed ``$n``/``:name`` styles, gaps in the
    positional numbering) or at bind time (wrong arity, missing or
    extra names, a value whose type contradicts the slot's inferred
    column type). The statement never ran, so the serving tier maps
    this to HTTP 422 — a client bug, not a server failure."""

    code = "PARAM_BINDING"


class ExecutionError(ReproError):
    """A runtime failure while executing a query plan."""

    code = "EXECUTION"


class ResilienceError(ExecutionError):
    """Base class for the execution-guardrail failure modes.

    These are the *typed* errors the resilience layer promises: a query
    under a deadline, cancellation token or resource limit either
    completes (possibly via a fallback evaluator) or raises one of
    these — it never hangs and never crashes with an opaque error."""

    code = "RESILIENCE"


class QueryTimeoutError(ResilienceError):
    """The query's deadline expired before evaluation finished."""

    code = "QUERY_TIMEOUT"


class QueryCancelledError(ResilienceError):
    """The query's cancellation token was set while it was running."""

    code = "QUERY_CANCELLED"


class ResourceLimitError(ResilienceError):
    """A per-query resource limit (rows, structure bytes) was exceeded."""

    code = "RESOURCE_LIMIT"


class MemoryPressureError(ResourceLimitError):
    """The session memory governor refused (or shed) this work.

    Raised when a hard byte reservation against the session-wide
    :class:`~repro.resilience.memory.MemoryGovernor` cannot be granted
    before its wait budget expires, or when a single allocation could
    never fit the configured ``memory_budget_bytes``. The work never
    started (reservations happen before execution), so retrying after
    ``retry_after`` seconds — once in-flight queries release their
    bytes — is always safe. The serving tier maps this to HTTP 503
    with a ``Retry-After`` header."""

    code = "MEMORY_PRESSURE"

    def __init__(self, message: str, requested: int = 0,
                 available: int = 0, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.requested = requested
        self.available = available
        self.retry_after = retry_after


class QueryRejectedError(ResilienceError):
    """The admission gateway shed this query instead of running it.

    Raised when a priority class's wait queue is saturated, or when the
    bounded queue wait elapsed before a concurrency slot freed up. The
    query never started executing, so retrying later is always safe."""

    code = "QUERY_REJECTED"

    def __init__(self, message: str, priority: str = "interactive") -> None:
        super().__init__(message)
        self.priority = priority


class TenantRateLimitError(QueryRejectedError):
    """The tenant's token-bucket rate limit rejected this request.

    Raised by the serving tier *before* gateway admission: the query
    never queued and never ran, so retrying after ``retry_after``
    seconds is always safe."""

    code = "TENANT_RATE_LIMITED"

    def __init__(self, message: str, tenant: str = "",
                 retry_after: float = 1.0,
                 priority: str = "interactive") -> None:
        super().__init__(message, priority=priority)
        self.tenant = tenant
        self.retry_after = retry_after


class TenantQuotaError(QueryRejectedError):
    """The tenant's concurrent-query quota is exhausted.

    Like :class:`TenantRateLimitError`, raised before admission; the
    quota frees as soon as one of the tenant's in-flight queries
    finishes."""

    code = "TENANT_QUOTA_EXCEEDED"

    def __init__(self, message: str, tenant: str = "",
                 priority: str = "interactive") -> None:
        super().__init__(message, priority=priority)
        self.tenant = tenant


class CircuitOpenError(ResilienceError):
    """A circuit breaker is open for the named resource.

    Raised *instead of* attempting the protected operation (a structure
    build) after repeated failures tripped the breaker. Callers treat
    it like the underlying failure it stands in for: the build degrades
    to the baseline evaluator.
    """

    code = "CIRCUIT_OPEN"

    def __init__(self, resource: str, retry_after: float = 0.0) -> None:
        super().__init__(
            f"circuit breaker for {resource!r} is open "
            f"(retry after {retry_after:.3g}s)")
        self.resource = resource
        self.retry_after = retry_after


class VerificationError(ResilienceError):
    """A result failed self-verification.

    Raised when sampled shadow verification finds the fast evaluator
    diverging from the naive oracle. Signals silent corruption — never
    retried, always surfaced.
    """

    code = "VERIFICATION_FAILED"


class StructureBuildError(ResilienceError):
    """An index-structure build failed; carries the structure kind.

    The window operator treats this (and :class:`ResourceLimitError`
    raised during a build) as a signal to degrade gracefully to the
    matching baseline evaluator instead of failing the query."""

    code = "STRUCTURE_BUILD_FAILED"

    def __init__(self, kind: str, cause: BaseException) -> None:
        super().__init__(
            f"building structure {kind!r} failed: "
            f"{type(cause).__name__}: {cause}")
        self.kind = kind
