"""Window function call specifications.

A :class:`WindowCall` captures everything between the function name and
the OVER clause, including the paper's proposed extensions (Section 2.4):
``DISTINCT``, a function-level ``ORDER BY`` independent of the frame
order, and a ``FILTER`` clause — e.g.::

    rank(order by tps desc) over w
    count(distinct dbsystem) over w
    percentile_disc(0.99, order by delay) over w
    sum(amount) filter (where is_active) over w
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.errors import WindowFunctionError
from repro.mst.aggregates import AggregateSpec
from repro.table.column import DataType
from repro.window.frame import OrderItem

AGGREGATE_FUNCTIONS = frozenset(
    {"count", "count_star", "sum", "avg", "min", "max"})
RANK_FUNCTIONS = frozenset(
    {"rank", "dense_rank", "percent_rank", "cume_dist", "row_number",
     "ntile"})
PERCENTILE_FUNCTIONS = frozenset(
    {"percentile_disc", "percentile_cont", "median"})
MODE_FUNCTIONS = frozenset({"mode"})
VALUE_FUNCTIONS = frozenset({"first_value", "last_value", "nth_value"})
NAVIGATION_FUNCTIONS = frozenset({"lead", "lag"})

ALL_FUNCTIONS = (AGGREGATE_FUNCTIONS | RANK_FUNCTIONS
                 | PERCENTILE_FUNCTIONS | MODE_FUNCTIONS | VALUE_FUNCTIONS
                 | NAVIGATION_FUNCTIONS | {"udaf"})

#: ``mst`` is the engine's path for every family; ``naive`` is the
#: per-frame recomputation it degrades to. The paper's competitors are
#: benchmark kernels (:mod:`repro.bench.contenders`), not engine paths.
ALGORITHMS = ("mst", "naive")


@dataclass(frozen=True)
class WindowCall:
    """One window function invocation.

    ``args`` are column names of the (possibly precomputed-expression)
    input columns. ``order_by`` is the function-level ORDER BY; the frame
    order lives in the :class:`~repro.window.frame.WindowSpec`.
    """

    function: str
    args: Tuple[str, ...] = ()
    distinct: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    filter_where: Optional[str] = None
    ignore_nulls: bool = False
    fraction: Optional[float] = None       # percentile fraction
    offset: int = 1                        # lead / lag distance
    default: Any = None                    # lead / lag default value
    nth: Optional[int] = None              # nth_value position (1-based)
    from_last: bool = False                # nth_value FROM LAST
    buckets: Optional[int] = None          # ntile bucket count
    udaf: Optional[AggregateSpec] = None   # user-defined aggregate
    output: str = ""
    algorithm: str = "mst"

    def __init__(self, function: str, args: Sequence[str] = (), **kwargs: Any) -> None:
        object.__setattr__(self, "function", function.lower())
        object.__setattr__(self, "args", tuple(args))
        defaults = {
            "distinct": False, "order_by": (), "filter_where": None,
            "ignore_nulls": False, "fraction": None, "offset": 1,
            "default": None, "nth": None, "from_last": False,
            "buckets": None, "udaf": None, "output": "", "algorithm": "mst",
        }
        for key, default in defaults.items():
            value = kwargs.pop(key, default)
            if key == "order_by":
                value = tuple(value)
            object.__setattr__(self, key, value)
        if kwargs:
            raise WindowFunctionError(
                f"unknown WindowCall options: {sorted(kwargs)}")
        self._validate()

    def _validate(self) -> None:
        name = self.function
        if name not in ALL_FUNCTIONS:
            raise WindowFunctionError(f"unknown window function {name!r}")
        if self.algorithm not in ALGORITHMS:
            raise WindowFunctionError(
                f"unknown algorithm {self.algorithm!r}: expected 'mst' or "
                f"'naive'")
        if name == "udaf" and self.udaf is None:
            raise WindowFunctionError("udaf calls need an AggregateSpec")
        if name in PERCENTILE_FUNCTIONS and name != "median":
            if self.fraction is None or not 0 <= self.fraction <= 1:
                raise WindowFunctionError(
                    f"{name} requires a fraction in [0, 1]")
        # The function-level ORDER BY is optional everywhere it is
        # meaningful: it defaults to the frame order (Section 2.4).
        if self.distinct and name not in AGGREGATE_FUNCTIONS | {"udaf"}:
            raise WindowFunctionError(
                f"DISTINCT is not applicable to {name}")
        if name == "nth_value" and (self.nth is None or self.nth < 1):
            raise WindowFunctionError("nth_value requires nth >= 1")
        if name == "ntile" and (self.buckets is None or self.buckets < 1):
            raise WindowFunctionError("ntile requires buckets >= 1")
        if name in NAVIGATION_FUNCTIONS and self.offset < 0:
            raise WindowFunctionError(f"{name} offset must be >= 0")
        needs_arg = (name in {"sum", "avg", "min", "max", "count", "mode",
                              "percentile_disc", "percentile_cont", "median",
                              "first_value", "last_value", "nth_value",
                              "lead", "lag", "udaf"})
        if needs_arg and not self.args:
            raise WindowFunctionError(f"{name} requires an argument")

    @property
    def output_name(self) -> str:
        return self.output or self.function

    @property
    def family(self) -> str:
        if self.function == "udaf" or self.function in AGGREGATE_FUNCTIONS:
            return "distinct" if self.distinct else "aggregate"
        if self.function in RANK_FUNCTIONS:
            return "rank"
        if self.function in PERCENTILE_FUNCTIONS:
            return "percentile"
        if self.function in MODE_FUNCTIONS:
            return "mode"
        if self.function in VALUE_FUNCTIONS:
            return "value"
        return "navigation"


_INT_RESULTS = frozenset({"count", "count_star", "rank", "dense_rank",
                          "row_number", "ntile"})
_FLOAT_RESULTS = frozenset({"avg", "percent_rank", "cume_dist",
                            "percentile_cont", "median"})


def result_type(call: WindowCall,
                arg_type: Optional[DataType]) -> Optional[DataType]:
    """The type of ``call``'s result column, from the call and the type
    of its first argument alone — fixed before evaluation, so it never
    depends on the data (an all-NULL result keeps its type). Everything
    not listed returns its argument's type: ``min`` / ``max`` / ``mode``
    / ``percentile_disc`` / the value and navigation functions. None
    means inferred from the values, which only a UDAF needs."""
    name = call.function
    if name == "udaf":
        return None
    if name in _INT_RESULTS:
        return DataType.INT64
    if name in _FLOAT_RESULTS:
        return DataType.FLOAT64
    if name == "sum":
        return (DataType.FLOAT64 if arg_type is DataType.FLOAT64
                else DataType.INT64)
    if (name in NAVIGATION_FUNCTIONS and arg_type is DataType.INT64
            and isinstance(call.default, float)):
        return DataType.FLOAT64  # the default widens the column
    return arg_type
