"""Property: the array kernels under join, GROUP BY, DISTINCT and IN
return what a row-at-a-time evaluation returns — same rows, same
order, same bits.

The oracle below is written the slow, obvious way and shares no code
with the engine: a nested loop in left-row-major order, dict-of-lists
groups in first-occurrence order, ``for``-loop float adds, SQL
three-valued logic spelled out on ``None``. Results are compared with
plain ``==`` on ``to_rows()``, row order included, although no
statement carries an ORDER BY: the order is part of the contract.
"""

import datetime
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sortutil
from repro.sql import Catalog, execute
from repro.table import DataType, Table

_DATES = [datetime.date(2020, 1, d) for d in (1, 2, 3)]

# column name -> (type, the small domain its non-NULL values come from)
_COLUMNS = {
    "k": (DataType.INT64, [0, 1, 2, 3]),
    "v": (DataType.INT64, [-2, 0, 1, 2, 5]),
    "f": (DataType.FLOAT64, [0.0, -0.0, 0.1, 0.2, 0.7, 1.0, 2.0, 3.0, 1e16]),
    "s": (DataType.STRING, ["", "a", "b", "ab"]),
    "d": (DataType.DATE, _DATES),
}


@st.composite
def tables(draw, max_rows=12):
    """Row dicts with an ``id`` and the columns above: small domains
    (many duplicates) and NULLs everywhere but ``id``."""
    n = draw(st.integers(0, max_rows))
    rows = []
    for i in range(n):
        row = {"id": i}
        for name, (_dtype, domain) in _COLUMNS.items():
            row[name] = draw(st.one_of(st.none(), st.sampled_from(domain)))
        rows.append(row)
    return rows


def _table(rows):
    data = {"id": (DataType.INT64, [row["id"] for row in rows])}
    for name, (dtype, _domain) in _COLUMNS.items():
        data[name] = (dtype, [row[name] for row in rows])
    return Table.from_dict(data)


def _run(sql, left, right=()):
    catalog = Catalog({"l": _table(left), "r": _table(right)})
    return execute(sql, catalog).to_rows()


# ----------------------------------------------------------------------
# SQL three-valued logic on None
# ----------------------------------------------------------------------
def _eq(a, b):
    return None if a is None or b is None else a == b


def _gt(a, b):
    return None if a is None or b is None else a > b


def _lt(a, b):
    return None if a is None or b is None else a < b


def _all_true(verdicts):
    return all(verdict is True for verdict in verdicts)


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
_KEYS = {
    "l.k = r.k": lambda a, b: [_eq(a["k"], b["k"])],
    "l.k = r.k and r.s = l.s": lambda a, b: [_eq(a["k"], b["k"]),
                                            _eq(b["s"], a["s"])],
    "l.k = r.f": lambda a, b: [_eq(a["k"], b["f"])],     # int vs float
    "l.d = r.d and l.f = r.f": lambda a, b: [_eq(a["d"], b["d"]),
                                            _eq(a["f"], b["f"])],
}
_RESIDUALS = {
    None: lambda a, b: [],
    "l.v < r.v": lambda a, b: [_lt(a["v"], b["v"])],
    "l.s <> r.s": lambda a, b: [None if a["s"] is None or b["s"] is None
                                else a["s"] != b["s"]],
}
# Single-input ON conjuncts: the planner sinks them where that is legal.
_ON_ONE_SIDE = {
    None: lambda a, b: [],
    "r.v > 0": lambda a, b: [_gt(b["v"], 0)],
    "l.v > 0": lambda a, b: [_gt(a["v"], 0)],
}
_WHERE = {
    "l.v > 0": lambda a, b: _gt(a["v"], 0),
    "r.v > 0": lambda a, b: _gt(b["v"], 0),
    "l.s = 'a'": lambda a, b: _eq(a["s"], "a"),
    "r.d is null": lambda a, b: b["d"] is None,
    "l.f < r.f": lambda a, b: _lt(a["f"], b["f"]),
}
_NULL_ROW = dict.fromkeys(["id", *_COLUMNS])


def _nested_loop(left, right, kind, on, where):
    pairs = []
    for a in left:
        matched = False
        for b in right:
            if _all_true(on(a, b)):
                pairs.append((a, b))
                matched = True
        if kind == "left join" and not matched:
            pairs.append((a, _NULL_ROW))
    return [(a["id"], b["id"], a["s"], b["d"], b["f"]) for a, b in pairs
            if _all_true(test(a, b) for test in where)]


@settings(max_examples=150, deadline=None)
@given(left=tables(), right=tables(),
       kind=st.sampled_from(["join", "left join"]),
       key=st.sampled_from(sorted(_KEYS)),
       residual=st.sampled_from(list(_RESIDUALS)),
       one_side=st.sampled_from(list(_ON_ONE_SIDE)),
       where=st.lists(st.sampled_from(sorted(_WHERE)), max_size=2,
                      unique=True))
def test_join_matches_the_nested_loop(left, right, kind, key, residual,
                                      one_side, where):
    on_text = " and ".join(t for t in (key, residual, one_side) if t)
    sql = f"select l.id, r.id, l.s, r.d, r.f from l {kind} r on {on_text}"
    if where:
        sql += " where " + " and ".join(where)

    def on(a, b):
        return (_KEYS[key](a, b) + _RESIDUALS[residual](a, b)
                + _ON_ONE_SIDE[one_side](a, b))

    assert _run(sql, left, right) == _nested_loop(
        left, right, kind, on, [_WHERE[w] for w in where])


# ----------------------------------------------------------------------
# GROUP BY, DISTINCT
# ----------------------------------------------------------------------
def _values(rows, column):
    return [row[column] for row in rows if row[column] is not None]


def _sum(values):
    if not values:
        return None
    total = 0
    for value in values:  # one IEEE addition per row, left to right
        total = total + value
    return total


def _avg(values):
    return float(_sum(values)) / len(values) if values else None


def _mode(values):
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best = None
    for value, count in counts.items():  # first seen wins a tie
        if best is None or count > counts[best]:
            best = value
    return best


def _percentile_disc(values, fraction):
    values = sorted(values)
    return values[max(math.ceil(fraction * len(values)) - 1, 0)] \
        if values else None


def _percentile_cont(values, fraction, descending=False):
    if not values:
        return None
    values = sorted(values, reverse=descending)
    position = fraction * (len(values) - 1)
    lower, upper = math.floor(position), math.ceil(position)
    weight = position - lower
    return float(values[lower]) * (1 - weight) + float(values[upper]) * weight


_AGGREGATES = {
    "mode(v)": lambda rows: _mode(_values(rows, "v")),
    "mode(s)": lambda rows: _mode(_values(rows, "s")),
    "median(v)": lambda rows: _percentile_cont(_values(rows, "v"), 0.5),
    "percentile_disc(0.5) within group (order by d)":
        lambda rows: _percentile_disc(_values(rows, "d"), 0.5),
    "percentile_cont(0.25) within group (order by f desc)":
        lambda rows: _percentile_cont(_values(rows, "f"), 0.25, True),
    "count(*)": lambda rows: len(rows),
    "count(v)": lambda rows: len(_values(rows, "v")),
    "count(distinct v)": lambda rows: len(set(_values(rows, "v"))),
    "count(distinct s)": lambda rows: len(set(_values(rows, "s"))),
    "sum(v)": lambda rows: _sum(_values(rows, "v")),
    "sum(f)": lambda rows: _sum(_values(rows, "f")),
    "sum(distinct v)": lambda rows: _sum(
        list(dict.fromkeys(_values(rows, "v")))),
    "avg(f)": lambda rows: _avg(_values(rows, "f")),
    "avg(v)": lambda rows: _avg(_values(rows, "v")),
    "min(f)": lambda rows: min(_values(rows, "f"), default=None),
    "max(v)": lambda rows: max(_values(rows, "v"), default=None),
    "min(s)": lambda rows: min(_values(rows, "s"), default=None),
    "max(d)": lambda rows: max(_values(rows, "d"), default=None),
}


@settings(max_examples=150, deadline=None)
@given(rows=tables(max_rows=20),
       group_by=st.lists(st.sampled_from(["k", "s", "d", "f"]), max_size=3,
                         unique=True),
       aggregates=st.lists(
           st.tuples(st.sampled_from(sorted(_AGGREGATES)), st.booleans()),
           min_size=1, max_size=4))
def test_group_by_matches_dict_of_lists(rows, group_by, aggregates):
    items = list(group_by)
    for text, filtered in aggregates:
        items.append(text + (" filter (where k > 0)" if filtered else ""))
    sql = "select " + ", ".join(items) + " from l"
    if group_by:
        sql += " group by " + ", ".join(group_by)

    groups = {} if group_by else {(): []}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in group_by), []).append(row)
    expected = []
    for key, members in groups.items():  # first-occurrence order
        out = list(key)
        for text, filtered in aggregates:
            selected = [row for row in members
                        if not filtered or _gt(row["k"], 0) is True]
            out.append(_AGGREGATES[text](selected))
        expected.append(tuple(out))
    assert _run(sql, rows) == expected


@settings(max_examples=80, deadline=None)
@given(rows=tables(max_rows=20),
       columns=st.lists(st.sampled_from(["k", "s", "d", "f"]), min_size=1,
                        max_size=3, unique=True))
def test_distinct_keeps_first_occurrences(rows, columns):
    expected = list(dict.fromkeys(
        tuple(row[c] for c in columns) for row in rows))
    assert _run(f"select distinct {', '.join(columns)} from l",
                rows) == expected


# ----------------------------------------------------------------------
# [NOT] IN (SELECT ...)
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(left=tables(), right=tables(),
       column=st.sampled_from(["k", "s", "d", ("k", "f")]),
       negated=st.booleans(), filtered=st.booleans())
def test_in_subquery_is_three_valued(left, right, column, negated, filtered):
    probe, member = column if isinstance(column, tuple) else (column, column)
    sql = (f"select id from l where {probe} {'not ' if negated else ''}in "
           f"(select {member} from r{' where v > 0' if filtered else ''})")
    members = [row[member] for row in right
               if not filtered or _gt(row["v"], 0) is True]
    expected = []
    for row in left:
        if row[probe] is None:
            verdict = None
        elif any(m is not None and m == row[probe] for m in members):
            verdict = True
        else:
            verdict = None if None in members else False
        if verdict is not None and verdict != negated:
            expected.append((row["id"],))
    assert _run(sql, left, right) == expected


# ----------------------------------------------------------------------
# the corners, pinned
# ----------------------------------------------------------------------
def _rows(**columns):
    """Row dicts from per-column value lists; unnamed columns are NULL."""
    n = len(next(iter(columns.values())))
    return [dict(_NULL_ROW, id=i, **{c: vs[i] for c, vs in columns.items()})
            for i in range(n)]


_NAN = float("nan")


class TestCorners:
    def test_nan_join_keys_never_match(self):
        # ... exactly as ``=`` evaluates: NaN = NaN is false.
        left = _rows(f=[_NAN, 1.0, _NAN])
        right = _rows(f=[_NAN, 1.0])
        assert _run("select l.id, r.id from l join r on l.f = r.f",
                    left, right) == [(1, 1)]
        assert _run("select l.id, r.id from l left join r on l.f = r.f",
                    left, right) == [(0, None), (1, 1), (2, None)]
        assert _run("select id from l where f in (select f from r)",
                    left, right) == [(1,)]
        # A NaN is a value, not a NULL: NOT IN over it is decided.
        assert _run("select id from l where f not in (select f from r)",
                    left, right) == [(0,), (2,)]

    def test_nan_group_keys_form_one_group(self):
        rows = _rows(f=[_NAN, 1.0, _NAN, None], v=[1, 2, 3, 4])
        out = _run("select f, sum(v) from l group by f", rows)
        assert math.isnan(out[0][0])
        assert out[0][1:] == (4,) and out[1:] == [(1.0, 2), (None, 4)]
        assert len(_run("select distinct f from l", rows)) == 3

    def test_signed_zeros_are_one_key(self):
        left = _rows(f=[0.0, -0.0], v=[1, 2])
        right = _rows(f=[-0.0])
        assert _run("select f, count(*) from l group by f",
                    left) == [(0.0, 2)]
        assert _run("select l.id, r.id from l join r on l.f = r.f",
                    left, right) == [(0, 0), (1, 0)]

    def test_all_null_key_column(self):
        left = _rows(k=[None, None], v=[1, 2])
        right = _rows(k=[None])
        assert _run("select l.id, r.id from l join r on l.k = r.k",
                    left, right) == []
        assert _run("select l.id, r.id from l left join r on l.k = r.k",
                    left, right) == [(0, None), (1, None)]
        assert _run("select k, sum(v) from l group by k",
                    left) == [(None, 3)]
        assert _run("select id from l where k in (select k from r)",
                    left, right) == []

    def test_empty_build_side(self):
        left = _rows(k=[1, 2], s=["a", "b"])
        assert _run("select l.id, r.id from l join r on l.k = r.k",
                    left, []) == []
        assert _run("select l.id, l.s, r.id, r.s from l "
                    "left join r on l.k = r.k",
                    left, []) == [(0, "a", None, None), (1, "b", None, None)]

    def test_empty_probe_side(self):
        right = _rows(k=[1, 2])
        for kind in ("join", "left join"):
            assert _run(f"select l.id, r.id from l {kind} r on l.k = r.k",
                        [], right) == []
        assert _run("select k, count(*) from l group by k", []) == []
        assert _run("select count(*), sum(v) from l", []) == [(0, None)]

    def test_left_join_whose_residual_rejects_every_candidate(self):
        left = _rows(k=[1, 2, 1], v=[9, 9, 9])
        right = _rows(k=[1, 1, 2], v=[0, 1, 2])
        assert _run("select l.id, r.id from l left join r "
                    "on l.k = r.k and l.v < r.v", left, right) == [
            (0, None), (1, None), (2, None)]
        assert _run("select l.id, r.id from l join r "
                    "on l.k = r.k and l.v < r.v", left, right) == []

    def test_a_three_key_code_that_must_re_densify(self, monkeypatch):
        left = _rows(k=[0, 1, 2, 3, 0, 1, 2, 3, None],
                     s=["a", "b", "a", "b", "a", "b", "ab", "", "a"],
                     d=[_DATES[i % 3] for i in range(9)],
                     v=list(range(9)))
        right = _rows(k=[3, 2, 1, 0, 0], s=["b", "a", "b", "a", "a"],
                      d=[_DATES[0], _DATES[2], _DATES[1], _DATES[0],
                         _DATES[1]])
        statements = [
            "select k, s, d, sum(v), count(*) from l group by k, s, d",
            "select distinct s, d, k from l",
            "select l.id, r.id from l left join r "
            "on l.k = r.k and l.s = r.s and l.d = r.d",
        ]
        roomy = [_run(sql, left, right) for sql in statements]
        assert roomy[2] == [(0, 3), (1, 2), (2, 1), (3, 0), (4, 4),
                            (5, None), (6, None), (7, None), (8, None)]
        # 5 x 5 x 4 combinations do not fit in a 16-value key word: the
        # running key is renumbered densely before the third column.
        monkeypatch.setattr(sortutil, "_WORD", 16)
        assert [_run(sql, left, right) for sql in statements] == roomy


# ----------------------------------------------------------------------
# min / max keep the argument's type
# ----------------------------------------------------------------------
class TestMinMaxType:
    def test_date_min_max_return_dates(self):
        """Regression: ``min``/``max`` over a DATE column returned the
        day ordinal as INT64."""
        rows = _rows(k=[1, 1, 2, 2], d=[_DATES[1], _DATES[0], None, None])
        catalog = Catalog({"l": _table(rows)})
        out = execute("select min(d) as lo, max(d) as hi from l", catalog)
        assert [f.dtype for f in out.schema] == [DataType.DATE] * 2
        assert out.to_rows() == [(_DATES[0], _DATES[1])]
        out = execute("select k, min(d) as lo, max(d) as hi from l "
                      "group by k", catalog)
        assert [f.dtype for f in out.schema][1:] == [DataType.DATE] * 2
        assert out.to_rows() == [(1, _DATES[0], _DATES[1]), (2, None, None)]

    def test_all_null_input_stays_a_float64_null(self):
        rows = _rows(k=[1], d=[None])
        catalog = Catalog({"l": _table(rows), "r": _table([])})
        for sql in ("select min(d) as m from l", "select max(d) as m from r"):
            out = execute(sql, catalog)
            assert out.schema.field("m").dtype is DataType.FLOAT64
            assert out.to_rows() == [(None,)]

    def test_string_min_max_unchanged(self):
        rows = _rows(s=["b", None, "a", "ab"])
        assert _run("select min(s), max(s) from l", rows) == [("a", "b")]
