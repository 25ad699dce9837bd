"""``count``, ``sum`` and ``avg(DISTINCT x)`` on both layouts, bit for bit.

``sum`` and ``avg`` over an INT64 argument with at most 64 classes among
a group's kept values, whose absolute values sum to at most 2^53, take
the presence table (:class:`~repro.rangetree.dense.DistinctTable`).
``count`` and every other call take the merge sort tree. The generated
cases draw 1..130 classes (straddling 64) and class values whose
absolute sum is at most, exactly or one past 2^53, and check

* that the layout the trace names is the one those two bounds choose;
* that the result equals, bit for bit, the tree built for the same call;
* that, where every sum is an exact float64 integer (absolute class
  sum at most 2^53, or a count), it equals a brute-force answer over
  Python sets.

Every class occurs in a kept row of every partition, so a group's kept
classes are all of them. A case draws its sizes first and takes the
rows' contents from one seeded generator, so a failing case shrinks in
few steps to small sizes and a seed. Run longer with
``--hypothesis-profile=long``.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.budget import structure_breakdown
from repro.mst.stats import distinct_table_bytes
from repro.obs.trace import Tracer
from repro.rangetree.dense import EXACT_SUM, WORD_BITS, DistinctTable
from repro.resilience.context import ExecutionContext, activate
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
from repro.window.evaluators import distinct
from repro.window.frame import OrderItem

FUNCTIONS = ("count", "sum", "avg")
EXCLUSIONS = [FrameExclusion.NO_OTHERS, FrameExclusion.CURRENT_ROW,
              FrameExclusion.GROUP, FrameExclusion.TIES]
MODES = {"rows": FrameSpec.rows, "groups": FrameSpec.groups,
         "range": FrameSpec.range}

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------
def _reaches(bound, coord, p, i, lower):
    kind, offset = bound
    if kind == "unbounded":
        return True
    target = coord[i] + {"current": 0, "preceding": -offset,
                         "following": offset}[kind]
    return coord[p] >= target if lower else coord[p] <= target


def brute_force(rows, case):
    """Per row: (count, sum, avg) of the distinct kept ``x`` in its
    frame, the sum and average None over no value."""
    out = [None] * len(rows)
    groups = {}
    for r, row in enumerate(rows):
        groups.setdefault(row["g"] if case["partitioned"] else 0,
                          []).append(r)
    for members in groups.values():
        members.sort(key=lambda r: (rows[r]["o"], r))
        keys = [rows[r]["o"] for r in members]
        coord = {"rows": list(range(len(keys))),
                 "groups": [sorted(set(keys)).index(k) for k in keys],
                 "range": keys}[case["mode"]]
        for i, row in enumerate(members):
            values = set()
            for p, other in enumerate(members):
                if not (_reaches(case["start"], coord, p, i, True)
                        and _reaches(case["end"], coord, p, i, False)):
                    continue
                peer = keys[p] == keys[i]
                exclusion = case["exclusion"]
                if (exclusion is FrameExclusion.CURRENT_ROW and p == i
                        or exclusion is FrameExclusion.GROUP and peer
                        or exclusion is FrameExclusion.TIES and peer
                        and p != i):
                    continue
                x = rows[other]["x"]
                if x is not None and rows[other]["f"] is True:
                    values.add(x)
            total = sum(values)
            out[row] = (len(values), total if values else None,
                        total / len(values) if values else None)
    return out


# ----------------------------------------------------------------------
# generated cases
# ----------------------------------------------------------------------
_BOUND = st.one_of(
    st.tuples(st.just("unbounded"), st.just(0)),
    st.tuples(st.just("current"), st.just(0)),
    st.tuples(st.sampled_from(["preceding", "following"]),
              st.integers(0, 4)))


@st.composite
def cases(draw):
    classes = draw(st.integers(1, 130)
                   | st.sampled_from([1, 8, 9, 63, 64, 65, 130]))
    target = draw(st.sampled_from([None, EXACT_SUM, EXACT_SUM + 1]))
    partitions = draw(st.integers(1, 2))
    extras = [draw(st.integers(0, 6)) for _ in range(partitions)]
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    # Distinct class values: small ones, or ones whose absolute values
    # sum to exactly 2^53 or 2^53 + 1 (the last class takes the rest).
    if target is None:
        values = rng.sample(range(-(1 << 40), (1 << 40) + 1), classes)
    else:
        values = rng.sample(range(-1000, 1001), classes - 1)
        rest = target - sum(abs(v) for v in values)
        values.append(rng.choice([rest, -rest]))
    rows = []
    for g, extra in enumerate(extras):
        # One kept row per class in every partition ...
        rows += [{"g": g, "x": v, "f": True} for v in values]
        # ... and a few that repeat a class, are NULL or filtered out.
        rows += [{"g": g, "x": rng.choice([None] + values),
                  "f": rng.choice([True, False, None])}
                 for _ in range(extra)]
    rng.shuffle(rows)
    rows = [dict(row, o=rng.randint(0, 6)) for row in rows]
    return dict(rows=rows, values=values,
                partitioned=partitions > 1 or draw(st.booleans()),
                mode=draw(st.sampled_from(sorted(MODES))),
                start=draw(_BOUND), end=draw(_BOUND),
                exclusion=draw(st.sampled_from(EXCLUSIONS)),
                use_filter=draw(st.booleans()))


def _bound(bound, is_start):
    kind, offset = bound
    if kind == "unbounded":
        return unbounded_preceding() if is_start else unbounded_following()
    if kind == "current":
        return current_row()
    return (preceding if kind == "preceding" else following)(offset)


def _run(case):
    """The three calls' result columns and the layout each one's
    ``structure.build`` span names."""
    rows = case["rows"]
    table = Table.from_dict({
        "g": (DataType.INT64, [r["g"] for r in rows]),
        "o": (DataType.INT64, [r["o"] for r in rows]),
        "x": (DataType.INT64, [r["x"] for r in rows]),
        "f": (DataType.BOOL, [r["f"] for r in rows]),
    })
    frame = MODES[case["mode"]](_bound(case["start"], True),
                                _bound(case["end"], False),
                                case["exclusion"])
    spec = WindowSpec(partition_by=("g",) if case["partitioned"] else (),
                      order_by=(OrderItem("o"),), frame=frame)
    calls = [WindowCall(name, ("x",), distinct=True,
                        filter_where="f" if case["use_filter"] else None)
             for name in FUNCTIONS]
    tracer = Tracer()
    with activate(ExecutionContext(tracer=tracer)):
        columns = window_query(table, calls, spec).columns[-3:]
    layouts = {span.attrs["kind"]: span.attrs["layout"]
               for span in tracer.finish().find_all("structure.build")
               if span.attrs["kind"].startswith("mst:distinct")}
    return columns, layouts


def _bits(column):
    values = np.asarray(column.raw())
    valid = np.asarray(column.validity)
    values = np.where(valid, values, 0)
    return valid, values.view(np.int64)


@generated
@given(cases())
def test_table_equals_tree_and_brute_force(case):
    if not case["use_filter"]:
        case = dict(case, rows=[dict(r, f=True) for r in case["rows"]])
    values = case["values"]
    in_word = len(values) <= WORD_BITS
    exact = sum(abs(v) for v in values) <= EXACT_SUM
    got, layouts = _run(case)
    assert layouts == {
        "mst:distinct": "tree",
        "mst:distinct:sum": "table" if in_word and exact else "tree"}

    with mock.patch.object(distinct, "_class_table",
                           lambda values, prev: None):
        tree, tree_layouts = _run(case)
    assert set(tree_layouts.values()) == {"tree"}
    for name, mine, theirs in zip(FUNCTIONS, got, tree):
        valid, bits = _bits(mine)
        tree_valid, tree_bits = _bits(theirs)
        assert np.array_equal(valid, tree_valid), name
        assert np.array_equal(bits, tree_bits), name

    want = brute_force(case["rows"], case)
    for k, (name, column) in enumerate(zip(FUNCTIONS, got)):
        if name != "count" and not exact:
            continue  # the tree's float sums round past 2^53
        assert column.to_list() == [w[k] for w in want], name


# ----------------------------------------------------------------------
# the structure itself
# ----------------------------------------------------------------------
def test_bytes_predicted_exactly():
    """``distinct_table_bytes`` needs only (n, classes): the presence
    words of the narrowest dtype and the byte table."""
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 3, 255, 256, 1000, 4097):
        for classes in (1, 8, 9, 16, 17, 33, 64):
            ids = rng.integers(0, classes, n)
            table = DistinctTable(ids, np.arange(classes) * 3 - 5)
            want = distinct_table_bytes(n, classes)
            assert table.memory_bytes() == want
            assert structure_breakdown(table).total == want


def test_multi_piece_words_are_the_union():
    """A frame of several pieces is the exact union of its pieces'
    classes; an empty or inverted piece adds none."""
    ids = np.array([0, 1, 2, 1, 0, 3, 3, 2])
    table = DistinctTable(ids, np.array([-4, 1, 10, 100]))
    pieces = [(np.array([0, 0, 5, 3]), np.array([1, 0, 8, 2])),
              (np.array([4, 2, 8, 6]), np.array([6, 3, 8, 8]))]
    counts, sums = table.count_and_sum(pieces)
    # {0} | {0, 3}; {} | {2}; {3, 2} | {}; {} | {3, 2}
    assert counts.tolist() == [2, 1, 2, 2]
    assert sums.tolist() == [96, 10, 110, 110]


def test_layout_is_named_only_on_the_span_that_built():
    """Past the tracer's span cap a build opens no span; no other span
    (the open ``probe``, say) may then carry its layout."""
    table = Table.from_dict({
        "o": (DataType.INT64, list(range(20))),
        "x": (DataType.INT64, [i % 3 for i in range(20)]),
    })
    spec = WindowSpec(order_by=(OrderItem("o"),),
                      frame=FrameSpec.rows(preceding(2), current_row()))
    call = WindowCall("sum", ("x",), distinct=True)
    for cap in range(1, 6):
        tracer = Tracer(max_spans=cap)
        with activate(ExecutionContext(tracer=tracer)):
            window_query(table, [call], spec)
        named = [(span.name, span.attrs["layout"])
                 for span in tracer.finish().walk() if "layout" in span.attrs]
        assert named in ([], [("structure.build", "table")]), cap
    assert named == [("structure.build", "table")]
