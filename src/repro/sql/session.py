"""Sessions: the long-lived serving object around the executor.

A :class:`Session` owns the structure cache, the plan cache, the
admission gateway, the breakers and the memory governor, and runs every
query under its own
:class:`~repro.resilience.context.ExecutionContext`;
:class:`PreparedStatement` is a parsed, parameter-validated statement
bound to one.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConfigurationError,
    MemoryPressureError,
    ParameterBindingError,
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
    ResourceLimitError,
)
from repro.obs import Tracer, trace_enabled_from_env
from repro.resilience.context import (
    CancellationToken,
    ExecutionContext,
    HealthCounters,
    ResourceLimits,
    activate,
)
from repro.sql import ast
from repro.sql.catalog import Catalog, TableSchema
from repro.sql.config import QueryOptions, SessionConfig
from repro.sql.executor import execute_plan
from repro.sql.params import (
    bind_parameters,
    coerce_parameter,
    infer_parameter_types,
    validate_parameters,
)
from repro.sql.parser import parse
from repro.sql.result import QueryResult, QueryStats
from repro.table.table import Table

#: Fixed per-query overhead charged on top of scanned-table bytes:
#: sort permutations, partition boundaries, small intermediates.
_QUERY_OVERHEAD_BYTES = 64 << 10


def _scanned(from_: Optional[ast.TableExpr], names: set) -> None:
    """Add to ``names`` the lowercased catalog names ``from_`` scans."""
    if isinstance(from_, ast.NamedTable):
        names.add(from_.name.lower())
    elif isinstance(from_, ast.Join):
        _scanned(from_.left, names)
        _scanned(from_.right, names)


def _estimate_query_bytes(stmt: ast.SelectStmt, catalog: Catalog) -> int:
    """An admission-time working-set estimate for one statement.

    Sums the resident bytes of every catalog table the statement scans
    (nested statements included; CTE names that shadow nothing in the
    catalog contribute nothing — their inputs are already counted
    through their own scans), doubled for materialised intermediates
    and window output columns, plus a fixed overhead. Deliberately
    coarse: the governor needs a consistent admission signal, not an
    exact footprint — actual structure bytes are charged precisely as
    they are built."""
    from repro.resilience.memory import table_bytes

    names: set = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.SelectStmt):
            _scanned(node.from_, names)
    total = sum(table_bytes(catalog.lookup(name))
                for name in names if name in catalog)
    return total * 2 + _QUERY_OVERHEAD_BYTES


class Session:
    """A query session owning one window-structure cache.

    The serving pattern the cache targets: one long-lived session, many
    queries against slowly-changing tables. Every structure built by a
    window evaluator is kept and reused whenever a later query needs
    the same structure over the same data. Its bytes, the cached
    plans' and the running queries' reservations share one ledger,
    :attr:`memory`; while that is over ``memory_budget_bytes`` the
    least-recently-used trees and plans are dropped (a tree is rebuilt
    on its next use).

    Each query runs under its own
    :class:`~repro.resilience.context.ExecutionContext`. ``timeout`` and
    ``limits`` given here are session-wide defaults; per-call arguments
    to :meth:`execute` override them. ``clock``/``faults`` exist for
    deterministic testing (simulated deadlines, injected failures).
    Guardrail telemetry accumulates across queries in
    :meth:`health_stats` and renders in :meth:`explain` — a query that
    timed out, tripped a breaker or degraded to a baseline evaluator
    leaves a visible trace.

    Concurrency is governed by a session-wide
    :class:`~repro.resilience.gateway.QueryGateway`: at most
    ``max_concurrent`` queries execute at once, waiters park in
    per-priority FIFO queues (``execute(priority=...)``,
    ``interactive`` before ``batch``) bounded at ``max_queue``, and
    arrivals beyond that are shed with a typed
    :class:`~repro.errors.QueryRejectedError`. A session-wide
    :class:`~repro.resilience.circuit.BreakerRegistry` protects
    structure builds: after ``breaker_threshold`` consecutive failures
    they fail fast for ``breaker_reset`` seconds (degrading to the
    naive evaluators) before a half-open probe tests recovery. ``verify_rate`` enables
    sampled shadow verification: that fraction of (call, partition)
    evaluations is re-answered by the naive oracle and any divergence
    raises :class:`~repro.errors.VerificationError`.

    Window groups evaluate serially on the query's thread; concurrency
    comes from the gateway admitting up to ``max_concurrent`` queries.

    Observability: every query can run under a per-query span tracer
    (``SessionConfig.trace`` / ``QueryOptions.trace`` /
    ``REPRO_TRACE``), the session keeps a
    :class:`~repro.obs.metrics.MetricsRegistry` scrapeable as
    Prometheus text via :meth:`metrics_text`, and
    ``explain(sql, analyze=True)`` executes the query under tracing
    and annotates the plan with actual per-phase timings.

    ::

        config = SessionConfig(memory_budget_bytes=64 << 20, timeout=5.0,
                               max_concurrent=8, verify_rate=0.05)
        session = Session(catalog, config=config)
        session.execute(sql)   # cold: builds trees
        session.execute(sql, options=QueryOptions(priority="batch"))
        print(session.explain(sql, analyze=True))  # actual timings
        print(session.metrics_text())              # Prometheus scrape
    """

    def __init__(self, catalog: Catalog,
                 config: Optional[SessionConfig] = None) -> None:
        from repro.cache.store import StructureCache
        from repro.resilience.circuit import BreakerRegistry
        from repro.resilience.gateway import QueryGateway

        if config is None:
            config = SessionConfig()
        self.config = config
        self.catalog = catalog
        #: The session's one byte ledger (see repro.resilience.memory):
        #: query reservations, structure-cache and plan-cache bytes all
        #: charge one budget, and pressure triggers eviction (trees
        #: are dropped and rebuilt on next use) or typed shedding
        #: instead of unbounded growth.
        from repro.resilience.memory import MemoryGovernor
        from repro.sql.config import resolve_memory_budget
        self.memory = MemoryGovernor(resolve_memory_budget(config),
                                     clock=config.clock)
        self.cache = StructureCache(governor=self.memory)
        self.default_timeout = config.timeout
        self.default_limits = config.limits
        self.faults = config.faults
        self.clock = config.clock
        self.gateway = QueryGateway(max_concurrent=config.max_concurrent,
                                    max_queue=config.max_queue,
                                    queue_timeout=config.queue_timeout,
                                    clock=config.clock)
        self.breakers = BreakerRegistry(
            failure_threshold=config.breaker_threshold,
            reset_timeout=config.breaker_reset,
            clock=config.clock)
        self.verify_rate = config.verify_rate
        self.verify_seed = config.verify_seed
        #: Prepared-statement cache: normalized-SQL fingerprint →
        #: parsed AST, shared by execute/explain whenever SQL text (not
        #: a pre-parsed AST) is submitted.
        from repro.sql.plancache import PlanCache
        self.plan_cache = PlanCache(governor=self.memory)
        self.health = HealthCounters()
        self._health_lock = threading.Lock()
        #: Tracing default for queries that don't override it per call:
        #: the config switch, falling back to ``REPRO_TRACE``.
        self.trace_default = (config.trace if config.trace is not None
                              else trace_enabled_from_env())
        self.metrics = None
        if config.metrics:
            from repro.obs import MetricsRegistry
            self.metrics = MetricsRegistry()
            self._init_metrics()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, sql_or_ast: Union[str, ast.SelectStmt],
                options: Optional[QueryOptions] = None,
                timeout: Optional[float] = None,
                token: Optional[CancellationToken] = None,
                limits: Optional[ResourceLimits] = None,
                priority: Optional[str] = None,
                trace: Optional[bool] = None) -> QueryResult:
        """Run one query under this session's guardrails.

        Pass a :class:`~repro.sql.config.QueryOptions` as ``options``;
        the loose ``timeout``/``token``/``limits``/``priority`` keywords
        are the pre-1.1 form and keep working (``timeout``/``limits``
        default to the session-wide settings; ``token`` allows another
        thread to cancel this query cooperatively; ``priority`` selects
        the gateway admission class, ``interactive`` before ``batch``).

        Returns a :class:`~repro.sql.result.QueryResult`: the result
        table (transparently iterable/comparable like a bare ``Table``)
        plus per-query ``.stats``, the span tree in ``.trace`` when the
        query ran under tracing, and ``.explain()``. The query's health
        counters merge into the session totals whether it succeeds, is
        shed, or fails."""
        if options is None:
            options = QueryOptions(
                timeout=timeout, token=token, limits=limits,
                priority="interactive" if priority is None else priority,
                trace=trace)
        elif (timeout is not None or token is not None
              or limits is not None or priority is not None
              or trace is not None):
            raise ConfigurationError(
                "pass either options=QueryOptions(...) or the loose "
                "keyword arguments, not both")
        return self._run(sql_or_ast, options)

    def _run(self, sql_or_ast: Union[str, ast.SelectStmt],
             options: QueryOptions,
             params: Optional[Dict[Any, Any]] = None) -> QueryResult:
        trace_on = (options.trace if options.trace is not None
                    else self.trace_default)
        tracer = Tracer(clock=self.clock) if trace_on else None
        context = ExecutionContext(
            timeout=(options.timeout if options.timeout is not None
                     else self.default_timeout),
            token=options.token,
            limits=(options.limits if options.limits is not None
                    else self.default_limits),
            faults=self.faults,
            clock=self.clock,
            breakers=self.breakers,
            verify_rate=self.verify_rate,
            verify_seed=self.verify_seed,
            tracer=tracer,
            memory=self.memory)
        clock = context.clock
        started = clock.monotonic()
        outcome = "error"
        table: Optional[Table] = None
        plan = actuals = None
        reservation = None
        try:
            stmt = self._parse(sql_or_ast, context)
            if params is not None:
                # Prepared execution: the plan cache holds the
                # parameterized AST (so re-execution with new literals
                # is a cache hit); binding produces a fresh literal
                # tree per call without touching the cached one.
                stmt = bind_parameters(stmt, params)
            # Admission-time memory reservation: estimate the query's
            # working set from its scanned tables and reserve it before
            # taking a gateway slot. Interactive queries always run
            # (soft reservation, pressure recorded); batch queries wait
            # for headroom and are shed with a typed 503 when none
            # appears within the queue timeout.
            reservation = self.memory.reserve(
                _estimate_query_bytes(stmt, self.catalog),
                tag="query",
                hard=(options.priority == "batch"),
                wait_timeout=self.config.queue_timeout,
                ctx=context)
            with self.gateway.admit(context, priority=options.priority):
                table, plan, actuals = execute_plan(
                    stmt, self.catalog, cache=self.cache, context=context)
            outcome = "ok"
        except QueryRejectedError:
            outcome = "shed"
            raise
        except QueryTimeoutError:
            outcome = "timeout"
            raise
        except QueryCancelledError:
            outcome = "cancelled"
            raise
        except MemoryPressureError:
            # Must precede ResourceLimitError (its base class): a
            # governor shed is backpressure, not a per-query limit.
            outcome = "shed"
            raise
        except ResourceLimitError:
            outcome = "limit"
            raise
        finally:
            if reservation is not None:
                reservation.release()
            if tracer is not None:
                tracer.finish()
            elapsed = clock.monotonic() - started
            with self._health_lock:
                self.health.merge(context.health)
            self._observe_query(outcome, elapsed, context)
        stats = QueryStats(elapsed, options.priority, context.health,
                           context.telemetry.snapshot(), outcome)
        result = QueryResult(table, stats,
                             trace=tracer.root if tracer else None,
                             plan=plan, actuals=actuals)
        # No reference back to ``result``: a dropped result is freed at
        # once, without waiting for a cyclic collection.
        result._explainer = functools.partial(self._explain_text, plan)
        return result

    def _parse(self, sql_or_ast: Union[str, ast.SelectStmt],
               exec_ctx: ExecutionContext) -> ast.SelectStmt:
        """Parse through the plan cache (pre-parsed ASTs pass through).

        A hit skips parsing entirely and shares the cached immutable
        AST; the ``parse`` span records which happened. Parse errors
        propagate and cache nothing."""
        if not isinstance(sql_or_ast, str):
            return sql_or_ast
        with exec_ctx.tracer.span("parse", chars=len(sql_or_ast)) as span:
            stmt, hit = self.plan_cache.get_or_parse(sql_or_ast, parse)
            span.annotate(plan_cache="hit" if hit else "miss")
        return stmt

    def _observe_query(self, outcome: str, elapsed: float,
                       context: ExecutionContext) -> None:
        if self.metrics is None:
            return
        self._m_queries.inc(outcome=outcome)
        self._m_latency.observe(elapsed)
        self._m_queue_wait.observe(context.telemetry.queue_wait_seconds)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def explain(self, sql_or_ast: Union[str, ast.SelectStmt],
                analyze: bool = False,
                options: Optional[QueryOptions] = None) -> str:
        """The query plan, with session-lifetime counters.

        With ``analyze=True`` the query actually executes under tracing
        (through normal gateway admission) and each plan node / EXPLAIN
        section is annotated with this execution's wall times and
        build/reuse counts.

        Plain ``explain`` also runs through execute-style admission —
        under its own :class:`ExecutionContext` with the session
        deadline, inside a gateway slot — so a hostile plan cannot use
        it to bypass ``max_concurrent``. Fault injection stays out of
        it: injected faults target execution, not introspection."""
        if analyze:
            base = options if options is not None else QueryOptions()
            return self._run(sql_or_ast, base.replace(trace=True)).explain()
        priority = options.priority if options is not None else "interactive"
        context = ExecutionContext(
            timeout=self.default_timeout,
            limits=self.default_limits,
            clock=self.clock,
            breakers=self.breakers,
            memory=self.memory)
        try:
            with self.gateway.admit(context, priority=priority):
                with activate(context):
                    return self._explain_text(
                        self._parse(sql_or_ast, context))
        finally:
            with self._health_lock:
                self.health.merge(context.health)

    def _explain_text(self, sql_or_ast: Union[str, ast.SelectStmt],
                      analysis: Optional[QueryResult] = None) -> str:
        from repro.sql.explain import explain as _explain
        return _explain(sql_or_ast, cache=self.cache, health=self.health,
                        gateway=self.gateway, breakers=self.breakers,
                        analysis=analysis,
                        plan_cache=self.plan_cache, memory=self.memory,
                        catalog=self.catalog)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        m = self.metrics
        self._m_queries = m.counter(
            "repro_queries_total", "Queries finished, by outcome.",
            ["outcome"])
        self._m_latency = m.histogram(
            "repro_query_seconds", "Query wall-clock latency in seconds.")
        self._m_queue_wait = m.histogram(
            "repro_queue_wait_seconds",
            "Gateway admission queue wait in seconds.")
        # Everything else is pulled at scrape time: each component
        # declares its own rows next to the stats they are read from.
        components = (self.cache, self.plan_cache, self.gateway,
                      self.breakers, self.memory)
        families = {
            name: getattr(m, kind)(name, help_text, labelnames)
            for component in components
            for name, help_text, kind, labelnames, _samples
            in component.metric_rows()}

        def collect() -> None:
            for component in components:
                for name, _h, kind, labelnames, samples in \
                        component.metric_rows():
                    family = families[name]
                    write = family.set if kind == "gauge" \
                        else family.set_total
                    for values, value in samples:
                        write(value, **dict(zip(labelnames, values)))

        m.add_collector(collect)

    def metrics_text(self) -> str:
        """The session's metrics in Prometheus text exposition format
        ('' when metrics are disabled)."""
        return self.metrics.expose() if self.metrics is not None else ""

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The session's metrics as a JSON-able dict ({} when metrics
        are disabled)."""
        return self.metrics.snapshot() if self.metrics is not None else {}

    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) a catalog table for this session.

        Cached structures are content-keyed, so a replaced table can
        never produce a stale hit; its entries age out under the LRU
        budget."""
        self.catalog.register(name, table)

    # ------------------------------------------------------------------
    # prepared statements and catalog introspection
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse and validate a parameterized statement once.

        The SQL may use ``$1``-style positional or ``:name``-style
        named placeholders (one style per statement, positional
        numbering contiguous from ``$1``). Parameter types are
        inferred from the columns each placeholder is compared
        against; :meth:`PreparedStatement.execute` type-checks bound
        values against them. Parsing goes through the plan cache, so
        every later execution of the statement is a cache hit."""
        if not isinstance(sql, str):
            raise ConfigurationError("prepare() expects SQL text")
        stmt = self.plan_cache.get_or_parse(sql, parse)[0]
        specs = validate_parameters(stmt)
        types = infer_parameter_types(stmt, self.catalog)
        return PreparedStatement(self, sql, stmt, specs, types)

    def tables(self) -> Tuple[TableSchema, ...]:
        """Frozen schemas of every registered table, sorted by name."""
        return self.catalog.tables()

    def describe(self, name: str) -> TableSchema:
        """The frozen schema of one registered table."""
        return self.catalog.describe(name)

    def cache_stats(self):
        return self.cache.stats()

    def health_stats(self) -> HealthCounters:
        """Accumulated guardrail telemetry across this session's queries."""
        return self.health

    def close(self) -> None:
        """Drop every cached structure and plan; the session stays
        usable and rebuilds them on demand."""
        self.cache.close()
        self.plan_cache.invalidate()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PreparedStatement:
    """A parsed, parameter-validated statement bound to a session.

    Created by :meth:`Session.prepare`. ``execute`` binds values to
    the placeholders (arity- and type-checked against the inferred
    parameter types), then runs through the normal session path —
    admission, guardrails, tracing — with the *text* keyed into the
    plan cache, so every re-execution with fresh literals is a plan
    cache hit."""

    def __init__(self, session: Session, sql: str, stmt: ast.SelectStmt,
                 parameters: List[ast.Parameter],
                 types: Dict[Any, Optional[str]]) -> None:
        self._session = session
        self._sql = sql
        self._stmt = stmt
        self._parameters = list(parameters)
        self._types = dict(types)

    @property
    def parameter_keys(self) -> List[Any]:
        """Placeholder keys in first-appearance order (ints for ``$n``,
        strings for ``:name``)."""
        return [p.key for p in self._parameters]

    @property
    def parameter_types(self) -> Dict[Any, Optional[str]]:
        """Inferred type per placeholder (None = unchecked)."""
        return dict(self._types)

    def bind(self, params: Any) -> Dict[Any, Any]:
        """Validate and coerce one set of bound values.

        Positional statements take a sequence (length must equal the
        parameter count); named statements take a mapping with exactly
        the declared names. Raises
        :class:`~repro.errors.ParameterBindingError` on arity, name or
        type mismatches."""
        positional = [p for p in self._parameters if p.index is not None]
        if positional:
            if params is None:
                params = ()
            if isinstance(params, (str, bytes)) \
                    or not isinstance(params, Sequence):
                raise ParameterBindingError(
                    f"statement takes {len(positional)} positional "
                    f"parameter(s); pass a sequence")
            if len(params) != len(positional):
                raise ParameterBindingError(
                    f"statement takes {len(positional)} parameter(s), "
                    f"got {len(params)}")
            return {
                i + 1: coerce_parameter(
                    i + 1, value, self._types.get(i + 1))
                for i, value in enumerate(params)}
        declared = {p.name for p in self._parameters}
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise ParameterBindingError(
                "statement uses named parameters; pass a mapping")
        given = {str(k).lower() for k in params}
        missing = sorted(declared - given)
        extra = sorted(given - declared)
        if missing:
            raise ParameterBindingError(
                f"missing parameter(s): "
                f"{', '.join(':' + m for m in missing)}")
        if extra:
            raise ParameterBindingError(
                f"unknown parameter(s): "
                f"{', '.join(':' + e for e in extra)}")
        return {
            str(key).lower(): coerce_parameter(
                str(key).lower(), value,
                self._types.get(str(key).lower()))
            for key, value in params.items()}

    def execute(self, params: Any = None,
                options: Optional[QueryOptions] = None) -> QueryResult:
        """Run the statement with ``params`` bound to its placeholders."""
        values = self.bind(params)
        return self._session._run(self._sql,
                                  options if options is not None
                                  else QueryOptions(),
                                  params=values)

