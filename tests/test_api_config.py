"""SessionConfig / QueryOptions: validation and env."""

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.resilience.context import ResourceLimits
from repro.sql import Catalog, QueryOptions, Session, SessionConfig
from repro.table import DataType, Table


def _catalog():
    table = Table.from_dict({
        "g": (DataType.INT64, [1, 1, 2]),
        "v": (DataType.INT64, [10, 20, 30]),
    })
    return Catalog({"t": table})


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.max_concurrent == 4
        assert config.max_queue == 16
        assert config.breaker_threshold == 5
        assert config.verify_rate == 0.0
        assert config.metrics is True
        assert config.trace is None

    @pytest.mark.parametrize("kwargs,message", [
        ({"memory_budget_bytes": -1}, "budget_bytes"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": -2.5}, "timeout"),
        ({"max_concurrent": 0}, "max_concurrent"),
        ({"max_queue": -1}, "max_queue"),
        ({"queue_timeout": -0.1}, "queue_timeout"),
        ({"breaker_threshold": 0}, "breaker_threshold"),
        ({"breaker_reset": 0}, "breaker_reset"),
        ({"verify_rate": 1.5}, "verify_rate"),
        ({"verify_rate": -0.1}, "verify_rate"),
        ({"memory_budget_bytes": 0}, "memory_budget_bytes"),
    ])
    def test_invalid_combinations_fail_at_construction(self, kwargs,
                                                       message):
        with pytest.raises(ConfigurationError, match=message):
            SessionConfig(**kwargs)

    def test_configuration_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            SessionConfig(timeout=-1)

    def test_replace_derives_a_variant(self):
        base = SessionConfig(max_concurrent=2)
        derived = base.replace(verify_rate=0.5)
        assert derived.max_concurrent == 2
        assert derived.verify_rate == 0.5
        assert base.verify_rate == 0.0

    def test_frozen(self):
        with pytest.raises(Exception):
            SessionConfig().max_concurrent = 3


class TestFromEnv:
    def test_reads_repro_variables(self):
        config = SessionConfig.from_env(env={
            "REPRO_MEMORY_BUDGET": "4096",
            "REPRO_TIMEOUT": "2.5",
            "REPRO_MAX_CONCURRENT": "8",
            "REPRO_VERIFY_RATE": "0.25",
            "REPRO_MAX_QUEUE": "4",
            "REPRO_TRACE": "1",
            "REPRO_METRICS": "off",
        })
        assert config.memory_budget_bytes == 4096
        assert config.timeout == 2.5
        assert config.max_concurrent == 8
        assert config.verify_rate == 0.25
        assert config.max_queue == 4
        assert config.trace is True
        assert config.metrics is False

    def test_unset_and_blank_keep_defaults(self):
        config = SessionConfig.from_env(env={"REPRO_MEMORY_BUDGET": ""})
        assert config == SessionConfig()

    def test_overrides_win_over_the_environment(self):
        config = SessionConfig.from_env(env={"REPRO_MAX_QUEUE": "4"},
                                        max_queue=2)
        assert config.max_queue == 2

    @pytest.mark.parametrize("env", [
        {"REPRO_MEMORY_BUDGET": "a lot"},
        {"REPRO_TIMEOUT": "soon"},
        {"REPRO_TRACE": "maybe"},
    ])
    def test_unparseable_values_raise_typed_errors(self, env):
        with pytest.raises(ConfigurationError,
                           match="environment variable"):
            SessionConfig.from_env(env=env)

    def test_validation_still_applies(self):
        with pytest.raises(ConfigurationError, match="max_concurrent"):
            SessionConfig.from_env(env={"REPRO_MAX_CONCURRENT": "0"})


class TestQueryOptions:
    def test_defaults(self):
        options = QueryOptions()
        assert options.priority == "interactive"
        assert options.trace is None

    def test_bad_priority_and_timeout(self):
        with pytest.raises(ConfigurationError, match="priority"):
            QueryOptions(priority="background")
        with pytest.raises(ConfigurationError, match="timeout"):
            QueryOptions(timeout=0)

    def test_replace(self):
        options = QueryOptions(priority="batch")
        assert options.replace(trace=True).priority == "batch"


class TestSessionConstruction:
    def test_config_object_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Session(_catalog(),
                         config=SessionConfig(max_concurrent=2)) as session:
                assert session.config.max_concurrent == 2

    def test_loose_kwargs_are_a_type_error(self):
        with pytest.raises(TypeError, match="max_concurrent"):
            Session(_catalog(), max_concurrent=2)

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="num_threads"):
            Session(_catalog(), num_threads=4)

    def test_unparseable_memory_budget_env_is_a_typed_error(
            self, monkeypatch):
        # Not a silently unbudgeted session.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_MEMORY_BUDGET"):
            Session(_catalog())


class TestExecuteOptions:
    def test_options_object(self):
        with Session(_catalog()) as session:
            result = session.execute(
                "SELECT v FROM t",
                options=QueryOptions(priority="batch",
                                     limits=ResourceLimits(max_rows=100)))
            assert result.stats.priority == "batch"

    def test_loose_kwargs_still_accepted(self):
        with Session(_catalog()) as session:
            result = session.execute("SELECT v FROM t", priority="batch",
                                     timeout=30.0)
            assert result.stats.priority == "batch"

    def test_options_plus_loose_kwargs_is_an_error(self):
        with Session(_catalog()) as session:
            with pytest.raises(ConfigurationError, match="options"):
                session.execute("SELECT v FROM t",
                                options=QueryOptions(), timeout=1.0)

    def test_bad_priority_fails_before_execution(self):
        with Session(_catalog()) as session:
            with pytest.raises(ConfigurationError, match="priority"):
                session.execute("SELECT v FROM t", priority="background")
