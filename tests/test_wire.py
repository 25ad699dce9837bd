"""Columnar result serialization against the per-value path.

The oracle here is the serialization the serving tier used before it
went columnar, written out in the test: every value read one at a time
through ``Column.__getitem__`` and made JSON-safe by
:func:`repro.wire.to_jsonable`, and every body encoded as
``json.dumps(to_jsonable(payload))``. The generated tables cover all
five data types with NULLs in each, the float and integer edge values
JSON and float64 disagree on, the ends of the DATE range, strings that
need escaping, NULL placeholders that are not valid values, and
zero-row and one-column shapes.
"""

import datetime
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.wire import json_body
from repro.sql.result import QueryResult, QueryStats
from repro.table import Column, DataType, Field, Schema, Table
from repro.wire import to_jsonable

INT_EDGES = [2**63 - 1, -(2**63 - 1), 2**53 + 1, -(2**53 + 1), 0]
FLOAT_EDGES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]
DATE_EDGES = [datetime.date(1, 1, 1), datetime.date(1970, 1, 1),
              datetime.date(9999, 12, 31)]
STRING_EDGES = ["", '"', "\\", '"\\"', "\x00\x01\x1f\n\t\r", "é",
                "中文", "😀", " "]

VALUES = {
    DataType.INT64: st.one_of(st.integers(-(2**63 - 1), 2**63 - 1),
                              st.sampled_from(INT_EDGES)),
    DataType.FLOAT64: st.one_of(st.floats(), st.sampled_from(FLOAT_EDGES)),
    DataType.DATE: st.one_of(st.dates(), st.sampled_from(DATE_EDGES)),
    DataType.STRING: st.one_of(st.text(max_size=8),
                               st.sampled_from(STRING_EDGES)),
    DataType.BOOL: st.booleans(),
}

#: What a NULL slot may hold when a column is wrapped from raw storage:
#: anything, including a DATE ordinal no ``datetime.date`` can hold.
PLACEHOLDERS = {
    DataType.INT64: st.integers(-(2**63), 2**63 - 1),
    DataType.FLOAT64: st.floats(),
    DataType.DATE: st.sampled_from([0, -1, 10**12, -(10**12), 2**62]),
    DataType.BOOL: st.booleans(),
}


@st.composite
def columns(draw, dtype, n):
    values = draw(st.lists(st.one_of(st.none(), VALUES[dtype]),
                           min_size=n, max_size=n))
    if dtype is DataType.STRING or not draw(st.booleans()):
        return Column(dtype, values)
    # Raw storage: the NULL slots keep whatever the producer left there.
    physical = []
    for value in values:
        if value is None:
            physical.append(draw(PLACEHOLDERS[dtype]))
        elif dtype is DataType.DATE:
            physical.append((value - datetime.date(1970, 1, 1)).days)
        else:
            physical.append(value)
    valid = np.array([v is not None for v in values], dtype=np.bool_)
    data = np.array(physical, dtype=dtype.numpy_dtype)
    return Column.from_numpy(dtype, data, valid)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    dtypes = draw(st.lists(st.sampled_from(list(DataType)),
                           min_size=1, max_size=6))
    schema = Schema(Field(f"c{i}", dtype) for i, dtype in enumerate(dtypes))
    cols = [draw(columns(dtype, n)) for dtype in dtypes]
    return Table.from_columns(schema, cols)


def _result(table):
    return QueryResult(table, QueryStats(0.001, "interactive", None, {}))


def oracle_rows(table):
    cols = table.columns
    return [[to_jsonable(col[i]) for col in cols]
            for i in range(table.num_rows)]


def oracle_body(payload):
    return json.dumps(to_jsonable(payload), allow_nan=False,
                      separators=(",", ":")).encode("utf-8")


def typed(values):
    """Values as (type, repr) pairs: equal means the same value of the
    same type, with NaN equal to NaN and -0.0 unequal to 0.0."""
    if isinstance(values, (list, tuple)):
        return [typed(v) for v in values]
    return (type(values), repr(values))


#: Payload parts ``json_body`` meets beside result rows: numpy scalars,
#: dates, sets, tuples, nested dicts with int/float/str keys, objects
#: with ``to_dict()``, non-finite floats (which force the fallback)
#: and numpy dict keys (which force it too).
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.dates(), st.sampled_from(STRING_EDGES),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64), st.booleans().map(np.bool_),
    st.frozensets(st.integers(0, 9), max_size=3),
    st.just(QueryStats(0.5, "batch", None, {"strategies": ["serial"]})))
KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(),
                 st.integers(0, 9).map(np.int64))
EXTRAS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=8)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestDifferential:
    @SETTINGS
    @given(tables())
    def test_to_dict_rows_match_the_per_value_path(self, table):
        rows = _result(table).to_dict(include_trace=False)["rows"]
        assert typed(rows) == typed(oracle_rows(table))

    @SETTINGS
    @given(tables())
    def test_column_to_list_matches_getitem(self, table):
        for col in table.columns:
            assert typed(col.to_list()) == typed(
                [col[i] for i in range(len(col))])
        assert typed(table.to_rows()) == typed(
            [table.row(i) for i in range(table.num_rows)])

    @SETTINGS
    @given(tables(), EXTRAS)
    def test_json_body_matches_the_walk_then_dumps_path(self, table, extra):
        payload = _result(table).to_dict(include_trace=False)
        payload["extra"] = extra
        assert json_body(payload) == oracle_body(payload)


class TestShapes:
    def test_zero_rows(self):
        table = Table.from_dict({
            "i": (DataType.INT64, []), "d": (DataType.DATE, []),
            "s": (DataType.STRING, [])})
        payload = _result(table).to_dict(include_trace=False)
        assert payload["rows"] == [] and payload["row_count"] == 0
        assert json_body(payload) == oracle_body(payload)

    def test_one_column(self):
        table = Table.from_dict({"f": (DataType.FLOAT64,
                                       [1.5, None, float("nan")])})
        rows = _result(table).to_dict(include_trace=False)["rows"]
        assert rows == [[1.5], [None], [None]]


class TestJsonBody:
    def test_nan_forces_the_fallback_with_the_same_bytes(self):
        payload = {"a": [1.0, float("nan")], "b": np.float64("inf")}
        try:
            json.dumps(payload, allow_nan=False, default=to_jsonable)
        except ValueError:
            pass
        else:  # pragma: no cover - the premise of the test
            raise AssertionError("expected the one-pass encode to refuse")
        assert json_body(payload) == b'{"a":[1.0,null],"b":null}'
        assert json_body(payload) == oracle_body(payload)

    def test_numpy_key_forces_the_fallback_with_the_same_bytes(self):
        payload = {np.int64(3): "x", "d": datetime.date(2024, 2, 29)}
        assert json_body(payload) == b'{"3":"x","d":"2024-02-29"}'
        assert json_body(payload) == oracle_body(payload)

    def test_default_converts_what_json_cannot(self):
        payload = {"n": np.int64(7), "b": np.bool_(True),
                   "d": datetime.date(2000, 1, 2), "s": frozenset([4])}
        assert json_body(payload) == b'{"n":7,"b":true,"d":"2000-01-02",' \
                                     b'"s":[4]}'

    def test_bool_and_none_keys_encode_as_json_does(self):
        # The one place the one-pass encode differs from the walk,
        # which wrote str(key): "True" / "None". No server payload
        # carries such a key.
        payload = {True: 1, False: 2, None: 3, "k": {True: 4}}
        assert json_body(payload) == \
            b'{"true":1,"false":2,"null":3,"k":{"true":4}}'
