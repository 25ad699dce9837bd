"""EXCLUDE frames of the DISTINCT aggregates and ``dense_rank`` against
a brute-force oracle written in this file.

The oracle builds every row's frame from first principles — ROWS, GROUPS
or RANGE over one INT64 ORDER BY key, minus the current row, its peer
group or its ties — and answers with Python sets. It shares no code with
``src/``: the engine's own ``naive`` algorithm reuses the engine's frame
pieces, peer groups and rank keys, so it cannot catch a bug in them.

Run longer with ``--hypothesis-profile=long``.
"""

import datetime
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.table import DataType, Table
from repro.window import (
    FrameExclusion,
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
    unbounded_following,
    unbounded_preceding,
    window_query,
)
from repro.window.evaluators import common
from repro.window.frame import OrderItem

EXCLUSIONS = [FrameExclusion.CURRENT_ROW, FrameExclusion.GROUP,
              FrameExclusion.TIES]
MODES = {"rows": FrameSpec.rows, "groups": FrameSpec.groups,
         "range": FrameSpec.range}

_DAY = datetime.date(2024, 2, 28)
ARGUMENT_VALUES = {
    DataType.INT64: st.integers(-2, 3),
    DataType.FLOAT64: st.sampled_from(
        [0.5, -1.25, 2.0, 0.0, math.nan, math.inf, -math.inf]),
    DataType.STRING: st.sampled_from(["a", "b", "c", ""]),
    DataType.DATE: st.sampled_from(
        [_DAY, _DAY + datetime.timedelta(days=1),
         _DAY + datetime.timedelta(days=400)]),
}

#: What a case multiplies its INT64 arguments by. At 2^52 the absolute
#: class values of most groups sum past 2^53, so their DISTINCT sums take
#: the merge sort tree and its hole correction, not the presence table;
#: every partial sum is still a small multiple of 2^52, an exact float64.
INT64_SCALES = st.sampled_from([1, 1 << 52])

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _bound_ok(bound, coord, p, i, lower):
    kind = bound[0]
    if kind == "unbounded":
        return True
    if kind == "current":
        target = coord[i]
    elif kind == "preceding":
        target = coord[i] - bound[1]
    else:
        target = coord[i] + bound[1]
    return coord[p] >= target if lower else coord[p] <= target


def oracle_frames(mode, start, end, exclusion, keys):
    """Per position of a partition sorted by ``keys``: the positions in
    its frame after the EXCLUDE clause."""
    n = len(keys)
    if mode == "rows":
        coord = list(range(n))
    elif mode == "groups":
        distinct = sorted(set(keys))
        coord = [distinct.index(k) for k in keys]
    else:
        coord = keys
    frames = []
    for i in range(n):
        frame = []
        for p in range(n):
            if not (_bound_ok(start, coord, p, i, True)
                    and _bound_ok(end, coord, p, i, False)):
                continue
            peer = keys[p] == keys[i]
            if exclusion is FrameExclusion.CURRENT_ROW and p == i:
                continue
            if exclusion is FrameExclusion.GROUP and peer:
                continue
            if exclusion is FrameExclusion.TIES and peer and p != i:
                continue
            frame.append(p)
        frames.append(frame)
    return frames


def oracle(rows, function, start, end, mode, exclusion, partitioned,
           descending=False):
    """``rows``: dicts with ``g``, ``o``, ``x``, ``k``, ``f``."""
    out = [None] * len(rows)
    groups = {}
    for r, row in enumerate(rows):
        groups.setdefault(row["g"] if partitioned else 0, []).append(r)
    for members in groups.values():
        members.sort(key=lambda r: (rows[r]["o"], r))
        keys = [rows[r]["o"] for r in members]
        frames = oracle_frames(mode, start, end, exclusion, keys)
        for i, frame in enumerate(frames):
            row = members[i]
            kept = [members[p] for p in frame
                    if rows[members[p]]["f"] is True]
            if function == "dense_rank":
                def rank_key(r):
                    k = rows[r]["k"]
                    if k is None:  # NULLS LAST ascending, FIRST descending
                        return (0, 0) if descending else (1, 0)
                    return (1, -k) if descending else (0, k)
                own = rank_key(row)
                out[row] = 1 + len({rank_key(r) for r in kept
                                    if rank_key(r) < own})
                continue
            distinct = {}
            for r in kept:
                x = rows[r]["x"]
                if x is not None:
                    distinct.setdefault("NaN" if x != x else x, x)
            values = list(distinct.values())
            if function == "count":
                out[row] = len(values)
            elif values:
                total = sum(values)
                out[row] = total if function == "sum" else total / len(values)
    return out


def _same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


# ----------------------------------------------------------------------
# generated cases
# ----------------------------------------------------------------------
_OFFSET = st.tuples(st.sampled_from(["preceding", "following"]),
                    st.integers(0, 3))
_START = st.one_of(st.just(("unbounded",)), st.just(("current",)), _OFFSET)
_END = st.one_of(st.just(("unbounded",)), st.just(("current",)), _OFFSET)


def _engine_bound(bound, is_start):
    kind = bound[0]
    if kind == "unbounded":
        return unbounded_preceding() if is_start else unbounded_following()
    if kind == "current":
        return current_row()
    return (preceding if kind == "preceding" else following)(bound[1])


def _scaled(x, scale):
    return x if x is None or scale == 1 else x * scale


@st.composite
def cases(draw, arg_type=None):
    arg_type = arg_type or draw(st.sampled_from(sorted(ARGUMENT_VALUES,
                                                       key=str)))
    n = draw(st.integers(0, 22))
    scale = draw(INT64_SCALES) if arg_type is DataType.INT64 else 1
    rows = [{"g": draw(st.integers(0, 2)),
             "o": draw(st.integers(0, 5)),
             "x": _scaled(draw(st.none() | ARGUMENT_VALUES[arg_type]),
                          scale),
             "k": draw(st.none() | st.integers(0, 4)),
             "f": draw(st.sampled_from([True, True, True, False, None]))}
            for _ in range(n)]
    return dict(rows=rows, arg_type=arg_type,
                mode=draw(st.sampled_from(sorted(MODES))),
                start=draw(_START), end=draw(_END),
                exclusion=draw(st.sampled_from(EXCLUSIONS)),
                partitioned=draw(st.booleans()),
                use_filter=draw(st.booleans()))


def _run(case, call):
    rows = case["rows"]
    table = Table.from_dict({
        "g": (DataType.INT64, [r["g"] for r in rows]),
        "o": (DataType.INT64, [r["o"] for r in rows]),
        "x": (case["arg_type"], [r["x"] for r in rows]),
        "k": (DataType.INT64, [r["k"] for r in rows]),
        "f": (DataType.BOOL, [r["f"] for r in rows]),
    })
    frame = MODES[case["mode"]](_engine_bound(case["start"], True),
                                _engine_bound(case["end"], False),
                                case["exclusion"])
    spec = WindowSpec(partition_by=("g",) if case["partitioned"] else (),
                      order_by=(OrderItem("o"),), frame=frame)
    return window_query(table, [call], spec).columns[-1].to_list()


def _check(case, function, call, descending=False):
    if not case["use_filter"]:
        case = dict(case, rows=[dict(r, f=True) for r in case["rows"]])
    got = _run(case, call)
    want = oracle(case["rows"], function, case["start"], case["end"],
                  case["mode"], case["exclusion"], case["partitioned"],
                  descending)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want))
           if not _same(g, w)]
    assert not bad, bad[:5]


@generated
@given(cases(), st.sampled_from(["count", "sum", "avg"]))
def test_distinct_aggregates(case, function):
    if case["arg_type"] in (DataType.STRING, DataType.DATE):
        function = "count"
    call = WindowCall(function, ("x",), distinct=True,
                      filter_where="f" if case["use_filter"] else None)
    _check(case, function, call)


@generated
@given(cases(arg_type=DataType.INT64), st.booleans())
def test_dense_rank(case, descending):
    call = WindowCall("dense_rank",
                      order_by=(OrderItem("k", descending=descending),),
                      filter_where="f" if case["use_filter"] else None)
    _check(case, "dense_rank", call, descending)


@st.composite
def one_large_many_single(draw):
    """A partitioned case with one large partition beside many one-row
    partitions."""
    case = draw(cases(arg_type=DataType.INT64))
    large = draw(st.integers(4, 16))
    singles = draw(st.integers(1, 12))
    groups = draw(st.permutations([0] * large
                                  + list(range(1, singles + 1))))
    scale = draw(INT64_SCALES)
    rows = [{"g": g, "o": draw(st.integers(0, 5)),
             "x": _scaled(draw(st.none() | ARGUMENT_VALUES[DataType.INT64]),
                          scale),
             "k": draw(st.none() | st.integers(0, 4)),
             "f": draw(st.sampled_from([True, True, True, False, None]))}
            for g in groups]
    return dict(case, rows=rows, partitioned=True)


@generated
@given(one_large_many_single(),
       st.sampled_from(["count", "sum", "avg", "dense_rank"]))
def test_one_large_and_many_single_row_partitions(case, function):
    flt = "f" if case["use_filter"] else None
    if function == "dense_rank":
        call = WindowCall("dense_rank", order_by=(OrderItem("k"),),
                          filter_where=flt)
    else:
        call = WindowCall(function, ("x",), distinct=True,
                          filter_where=flt)
    _check(case, function, call)


# ----------------------------------------------------------------------
# the pair blocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exclusion", EXCLUSIONS)
def test_block_boundaries_do_not_change_results(monkeypatch, exclusion):
    """Tiny pair blocks split the correction at every few rows (and
    force rows wider than a block into blocks of their own)."""
    n = 300
    table = Table.from_dict({
        "o": (DataType.INT64, [(i * 7) % 23 for i in range(n)]),
        "x": (DataType.FLOAT64, [float((i * 5) % 11) / 4 for i in range(n)]),
        "k": (DataType.INT64, [(i * 3) % 17 for i in range(n)]),
    })
    spec = WindowSpec(order_by=(OrderItem("o"),), frame=FrameSpec.rows(
        preceding(40), following(9), exclusion))
    calls = [WindowCall(name, ("x",), distinct=True)
             for name in ("count", "sum", "avg")]
    calls.append(WindowCall("dense_rank", order_by=(OrderItem("k"),)))

    def results():
        return [column.to_list()
                for column in window_query(table, calls, spec).columns[-4:]]

    want = results()
    monkeypatch.setattr(common, "HOLE_PAIRS_PER_BLOCK", 3)
    assert results() == want
