"""repro — arbitrarily-framed holistic SQL aggregates and window functions.

A complete reproduction of "Efficient Evaluation of Arbitrarily-Framed
Holistic SQL Aggregates and Window Functions" (SIGMOD 2022): merge sort
trees with fractional cascading, the full framed window-function zoo
(DISTINCT aggregates, rank functions, percentiles, value functions,
LEAD/LAG, DENSE_RANK via presence tables or range trees), the competing
algorithms from the paper's evaluation, a SQL front end exposing the
proposed syntax extensions, and the benchmark harness regenerating
every figure.

Quick start (see also ``examples/quickstart.py``)::

    from repro import Catalog, execute
    from repro.tpch import lineitem

    catalog = Catalog({"lineitem": lineitem(10_000)})
    result = execute(
        "select l_shipdate, "
        "       percentile_disc(0.5, order by l_extendedprice) over ("
        "         order by l_shipdate "
        "         rows between 999 preceding and current row) as med "
        "from lineitem",
        catalog)

or, below SQL, against the window operator directly::

    from repro import (FrameSpec, WindowCall, WindowSpec, window_query,
                       preceding, current_row)
    from repro.window.frame import OrderItem

    spec = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(999), current_row()))
    call = WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5)
    result = window_query(table, [call], spec)
"""

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
from repro.cache import StructureCache
from repro.mst import AggregateSpec, MemoryModel, MergeSortTree, make_udaf
from repro.obs import MetricsRegistry, Tracer
from repro.sql import (
    Catalog,
    QueryOptions,
    QueryResult,
    QueryStats,
    Session,
    SessionConfig,
    execute,
)
from repro.table import Column, DataType, Field, Schema, Table
from repro.window import (
    FrameBound,
    FrameExclusion,
    FrameMode,
    FrameSpec,
    WindowCall,
    WindowOperator,
    WindowSpec,
    current_row,
    following,
    preceding,
    unbounded_following,
    unbounded_preceding,
    window_query,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "Catalog",
    "Column",
    "DataType",
    "ExecutionError",
    "Field",
    "FrameBound",
    "FrameError",
    "FrameExclusion",
    "FrameMode",
    "FrameSpec",
    "MemoryModel",
    "MergeSortTree",
    "MetricsRegistry",
    "QueryOptions",
    "QueryResult",
    "QueryStats",
    "ReproError",
    "Schema",
    "SchemaError",
    "Session",
    "SessionConfig",
    "SqlAnalysisError",
    "SqlError",
    "SqlSyntaxError",
    "StructureCache",
    "Table",
    "Tracer",
    "TypeMismatchError",
    "WindowCall",
    "WindowFunctionError",
    "WindowOperator",
    "WindowSpec",
    "current_row",
    "execute",
    "following",
    "make_udaf",
    "preceding",
    "unbounded_following",
    "unbounded_preceding",
    "window_query",
]
