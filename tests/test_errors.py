"""Error hierarchy contracts."""


from repro.errors import (
    ExecutionError,
    FrameError,
    ReproError,
    SchemaError,
    SqlAnalysisError,
    SqlError,
    SqlSyntaxError,
    TypeMismatchError,
    WindowFunctionError,
)


def test_everything_derives_from_repro_error():
    for cls in (SchemaError, TypeMismatchError, FrameError,
                WindowFunctionError, SqlError, SqlSyntaxError,
                SqlAnalysisError, ExecutionError):
        assert issubclass(cls, ReproError)


def test_sql_hierarchy():
    assert issubclass(SqlSyntaxError, SqlError)
    assert issubclass(SqlAnalysisError, SqlError)
    assert issubclass(TypeMismatchError, SchemaError)


def test_syntax_error_carries_position():
    error = SqlSyntaxError("bad", position=17)
    assert error.position == 17
    assert SqlSyntaxError("bad").position == -1


def test_catchable_with_single_clause():
    from repro.sql import Catalog, execute
    try:
        execute("select * from missing", Catalog())
    except ReproError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected a ReproError")


def test_every_error_class_has_a_stable_code():
    """Each exception type carries a machine-readable ``code`` the
    serving tier maps to wire errors; codes are per-class constants."""
    import inspect

    import repro.errors as errors_mod

    seen = {}
    for _, cls in inspect.getmembers(errors_mod, inspect.isclass):
        if issubclass(cls, ReproError):
            code = cls.code
            assert isinstance(code, str) and code, cls
            assert code == code.upper(), cls
            seen.setdefault(code, []).append(cls.__name__)
    # Codes identify a condition, not a class position: subclasses may
    # share only when one refines the other (none do today except via
    # inheritance defaults, which the upper bound below catches).
    duplicates = {c: n for c, n in seen.items() if len(n) > 1}
    assert not duplicates, duplicates


def test_codes_cover_the_serving_status_map():
    from repro.errors import (
        ConfigurationError,
        QueryCancelledError,
        QueryRejectedError,
        QueryTimeoutError,
        ResourceLimitError,
        TenantQuotaError,
        TenantRateLimitError,
    )

    assert QueryRejectedError.code == "QUERY_REJECTED"
    assert QueryTimeoutError.code == "QUERY_TIMEOUT"
    assert QueryCancelledError.code == "QUERY_CANCELLED"
    assert ResourceLimitError.code == "RESOURCE_LIMIT"
    assert ConfigurationError.code == "INVALID_CONFIG"
    assert TenantRateLimitError.code == "TENANT_RATE_LIMITED"
    assert TenantQuotaError.code == "TENANT_QUOTA_EXCEEDED"
    assert ReproError.code == "INTERNAL"


def test_tenant_errors_are_rejections():
    """429-family errors subclass QueryRejectedError so existing
    ``except QueryRejectedError`` retry loops keep working."""
    from repro.errors import (
        QueryRejectedError,
        TenantQuotaError,
        TenantRateLimitError,
    )

    exc = TenantRateLimitError("slow down", tenant="t",
                               retry_after=2.5, priority="batch")
    assert isinstance(exc, QueryRejectedError)
    assert (exc.tenant, exc.retry_after, exc.priority) == \
        ("t", 2.5, "batch")
    quota = TenantQuotaError("too many", tenant="t")
    assert isinstance(quota, QueryRejectedError)
    assert quota.tenant == "t"


def test_instances_inherit_class_codes():
    assert SqlSyntaxError("x", position=0).code == "SQL_SYNTAX"
    assert ExecutionError("x").code == "EXECUTION"
