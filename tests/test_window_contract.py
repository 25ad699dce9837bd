"""The evaluator contract: typed ``(values, validity)`` arrays, one
entry per answered row, whose type is fixed by the call and its
argument's schema type — never by the data, never by ``mst`` or
``naive``."""

import datetime

import numpy as np
import pytest

from repro.mst import SUM
from repro.table import DataType, Table
from repro.window import (FrameExclusion, FrameSpec, WindowCall, WindowSpec,
                          preceding, window_query)
from repro.window.calls import ALL_FUNCTIONS, result_type
from repro.window.evaluators import evaluate_call
from repro.window.evaluators.common import to_list
from repro.window.frame import FrameMode, OrderItem
from repro.window.operator import _build_view
from repro.window.partition import sort_group

N = 12
TABLE = Table.from_dict({
    "o": (DataType.INT64, [i // 2 for i in range(N)]),  # peers in pairs
    "x": (DataType.INT64, [None if i % 4 == 1 else i % 5 for i in range(N)]),
    "y": (DataType.FLOAT64, [None if i % 5 == 2 else i / 2
                             for i in range(N)]),
    "d": (DataType.DATE, [None if i % 3 == 0
                          else datetime.date(2020, 1, 1 + i % 4)
                          for i in range(N)]),
    "s": (DataType.STRING, [None if i % 6 == 4 else "ab"[i % 2]
                            for i in range(N)]),
})

#: Every function the operator knows: its extra call options and the
#: argument columns to try.
_RANK = dict(order_by=(OrderItem("y"),)), (None,)
_NUMERIC = ("x", "y", "d")
FUNCTIONS = {
    "count_star": ({}, (None,)),
    "count": ({}, ("x", "s")),
    "sum": ({}, _NUMERIC),
    "avg": ({}, _NUMERIC),
    "min": ({}, _NUMERIC),
    "max": ({}, _NUMERIC),
    "udaf": (dict(udaf=SUM), ("x",)),
    "count distinct": (dict(distinct=True), ("x", "s")),
    "sum distinct": (dict(distinct=True), _NUMERIC),
    "avg distinct": (dict(distinct=True), _NUMERIC),
    "udaf distinct": (dict(distinct=True, udaf=SUM), ("x",)),
    "rank": _RANK, "dense_rank": _RANK, "percent_rank": _RANK,
    "cume_dist": _RANK, "row_number": _RANK,
    "ntile": (dict(buckets=3, **_RANK[0]), _RANK[1]),
    "percentile_disc": (dict(fraction=0.5), _NUMERIC + ("s",)),
    "percentile_cont": (dict(fraction=0.25), ("x", "y")),
    "median": ({}, ("x", "y")),
    "mode": ({}, _NUMERIC + ("s",)),
    "first_value": ({}, _NUMERIC + ("s",)),
    "last_value": (dict(ignore_nulls=True), _NUMERIC + ("s",)),
    "nth_value": (dict(nth=2), _NUMERIC + ("s",)),
    "lead": (dict(order_by=(OrderItem("y"),)), _NUMERIC + ("s",)),
    "lag": (dict(offset=2), _NUMERIC + ("s",)),
}


def test_every_function_is_covered():
    assert {name.split()[0] for name in FUNCTIONS} == set(ALL_FUNCTIONS)


def _spec(exclusion):
    # 2 PRECEDING .. 1 PRECEDING: row 0's frame is empty under every
    # exclusion, and EXCLUDE GROUP / TIES empty a few more.
    return WindowSpec(order_by=(OrderItem("o"),),
                      frame=FrameSpec(FrameMode.ROWS, preceding(2),
                                      preceding(1), exclusion))


def _partition(exclusion, answer=None):
    data = {f.name: (TABLE.column(f.name).raw(),
                     TABLE.column(f.name).validity) for f in TABLE.schema}
    spec = _spec(exclusion)
    sort = sort_group(TABLE, spec)  # the identity: TABLE is sorted by o
    return _build_view(data, sort.order, spec, None, sort.peer_ids,
                       answer=answer)


CASES = [(name, algorithm) for name in FUNCTIONS
         for algorithm in ("mst", "naive")]


@pytest.mark.parametrize("name,algorithm", CASES)
def test_evaluate_call_contract(name, algorithm):
    options, arg_columns = FUNCTIONS[name]
    for exclusion in FrameExclusion:
        part = _partition(exclusion)
        for column in arg_columns:
            args = () if column is None else (column,)
            call = WindowCall(name.split()[0], args, algorithm=algorithm,
                              **options)
            arg_type = None if column is None \
                else TABLE.schema.field(column).dtype
            static = result_type(call, arg_type)
            values, validity = evaluate_call(call, part)
            where = (name, algorithm, exclusion, column)
            assert isinstance(values, np.ndarray), where
            assert len(values) == part.n, where
            expected = object if static in (None, DataType.STRING) \
                else static.numpy_dtype
            assert values.dtype == expected, where
            assert validity is None or (
                isinstance(validity, np.ndarray)
                and validity.dtype == np.bool_
                and len(validity) == part.n), where
            # The column type is the static one on both paths; a
            # UDAF's is inferred from its states (INT64 sums here).
            result = window_query(TABLE, [call], _spec(exclusion))
            assert result.schema.fields[-1].dtype is (static or
                                                      DataType.INT64), where


#: A demand that is neither a prefix nor contiguous, with a peer of a
#: demanded row left out (rows 4/5 and 10/11 are peers).
ANSWER = np.array([0, 1, 4, 7, 8, 11])


@pytest.mark.parametrize("name,algorithm", CASES)
def test_answers_only_the_demanded_rows(name, algorithm):
    """A view over a demanded subset answers exactly those rows, each
    as the whole-partition view answers it — the trees still span the
    partition."""
    options, arg_columns = FUNCTIONS[name]
    for exclusion in FrameExclusion:
        every, demanded = _partition(exclusion), _partition(exclusion, ANSWER)
        assert demanded.n == N and demanded.rows.tolist() == ANSWER.tolist()
        for column in arg_columns:
            args = () if column is None else (column,)
            call = WindowCall(name.split()[0], args, algorithm=algorithm,
                              **options)
            values, validity = evaluate_call(call, demanded)
            where = (name, algorithm, exclusion, column)
            assert len(values) == len(ANSWER), where
            whole = to_list(evaluate_call(call, every))
            assert to_list((values, validity)) == \
                [whole[row] for row in ANSWER], where


@pytest.mark.parametrize("algorithm", ["mst", "naive"])
@pytest.mark.parametrize("function,options", [
    ("first_value", {}), ("max", {}), ("mode", {}),
    ("percentile_disc", dict(fraction=0.5)), ("lead", dict(offset=99)),
])
def test_all_null_result_keeps_the_static_type(function, options,
                                               algorithm):
    """Every frame empty: nothing in the values says DATE or INT64."""
    from repro.window import following
    empty = WindowSpec(order_by=(OrderItem("o"),),
                       frame=FrameSpec(FrameMode.ROWS, following(1),
                                       preceding(1)))
    for column, dtype in (("d", DataType.DATE), ("x", DataType.INT64)):
        call = WindowCall(function, (column,), algorithm=algorithm,
                          **options)
        result = window_query(TABLE, [call], empty)
        assert result.schema.fields[-1].dtype is dtype
        assert result.columns[-1].to_list() == [None] * N


@pytest.mark.parametrize("algorithm", ["mst", "naive"])
def test_date_default_stays_a_date(algorithm):
    day = datetime.date(1999, 12, 31)
    call = WindowCall("lag", ("d",), offset=99, default=day,
                      algorithm=algorithm)
    result = window_query(TABLE, [call], _spec(FrameExclusion.NO_OTHERS))
    assert result.schema.fields[-1].dtype is DataType.DATE
    assert result.columns[-1].to_list() == [day] * N
