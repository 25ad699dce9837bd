"""Shared test fixtures."""

import numpy as np
import pytest
from hypothesis import settings

from repro.table import DataType, Table

# ``--hypothesis-profile=long``: the generated suites that take their
# example count from the profile run 20x the default.
settings.register_profile("long", max_examples=2000, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_window_table(n: int = 120, seed: int = 42,
                      null_fraction: float = 0.1) -> Table:
    """A small mixed table exercised by the window-function tests."""
    rng = np.random.default_rng(seed)
    xs = [int(v) if rng.random() > null_fraction else None
          for v in rng.integers(0, 15, n)]
    return Table.from_dict({
        "g": (DataType.INT64, [int(v) for v in rng.integers(0, 3, n)]),
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 40, n)]),
        "x": (DataType.INT64, xs),
        "y": (DataType.FLOAT64, [float(v) for v in rng.normal(size=n)]),
        "flag": (DataType.BOOL, [bool(v) for v in rng.integers(0, 2, n)]),
    }, name="t")


@pytest.fixture
def window_table():
    return make_window_table()


def assert_columns_equal(a, b, tolerance=1e-9):
    """Compare two result column value lists with float tolerance."""
    assert len(a) == len(b), f"length mismatch: {len(a)} vs {len(b)}"
    for i, (u, v) in enumerate(zip(a, b)):
        if isinstance(u, float) and isinstance(v, float):
            assert abs(u - v) < tolerance, (i, u, v)
        else:
            assert u == v, (i, u, v)
