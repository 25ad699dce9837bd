"""Framed ``dense_rank`` in SQL: the index against the naive rung.

``ResourceLimits(max_structure_bytes=1)`` refuses every index structure,
so the same statement runs ``naive_dense_rank`` in a second session;
both must return equal rows. The statements cover ROWS, RANGE and
GROUPS frames, every EXCLUDE clause, FILTER, PARTITION BY, NULL order
and rank keys, ascending and descending rank keys, over few rank
classes (the presence table) and over more than 64 (the range tree).
Run longer with ``--hypothesis-profile=long``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Catalog, Session, SessionConfig
from repro.resilience import ResourceLimits
from repro.table import DataType, Table

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_OFFSET = st.tuples(st.integers(0, 4),
                    st.sampled_from(["PRECEDING", "FOLLOWING"]))
_BOUND = st.one_of(st.just("UNBOUNDED"), st.just("CURRENT ROW"), _OFFSET)


def _bound(bound, start):
    if bound == "UNBOUNDED":
        return "UNBOUNDED " + ("PRECEDING" if start else "FOLLOWING")
    if bound == "CURRENT ROW":
        return bound
    return f"{bound[0]} {bound[1]}"


@st.composite
def statements(draw):
    if draw(st.booleans()):  # at most 64 rank classes
        n = draw(st.integers(0, 40))
        k = [draw(st.none() | st.integers(0, 5)) for _ in range(n)]
    else:  # more than 64 rank classes: the range tree, under a FILTER too
        n = draw(st.integers(90, 120))
        k = draw(st.permutations(range(n)))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):
            k[i] = draw(st.none() | st.integers(0, n))
    rows = {
        "g": [draw(st.integers(0, 2)) for _ in range(n)],
        "o": [draw(st.none() | st.integers(0, 6)) for _ in range(n)],
        "k": k,
        "f": [draw(st.sampled_from([True, True, False, None]))
              for _ in range(n)],
    }
    rank_key = "k" + draw(st.sampled_from(
        ["", " DESC", " NULLS FIRST", " DESC NULLS LAST"]))
    filtered = " FILTER (WHERE f)" if draw(st.booleans()) else ""
    partition = "PARTITION BY g " if draw(st.booleans()) else ""
    frame = "{} BETWEEN {} AND {}{}".format(
        draw(st.sampled_from(["ROWS", "RANGE", "GROUPS"])),
        _bound(draw(_BOUND), True), _bound(draw(_BOUND), False),
        draw(st.sampled_from(["", " EXCLUDE CURRENT ROW", " EXCLUDE GROUP",
                              " EXCLUDE TIES", " EXCLUDE NO OTHERS"])))
    sql = (f"SELECT dense_rank(ORDER BY {rank_key}){filtered} OVER "
           f"({partition}ORDER BY o {frame}) AS r FROM t")
    return rows, sql


def _table(rows):
    return Table.from_dict({
        "g": (DataType.INT64, rows["g"]),
        "o": (DataType.INT64, rows["o"]),
        "k": (DataType.INT64, rows["k"]),
        "f": (DataType.BOOL, rows["f"]),
    })


@generated
@given(statements())
def test_range_tree_equals_naive(statement):
    rows, sql = statement
    catalog = Catalog({"t": _table(rows)})
    naive = SessionConfig(limits=ResourceLimits(max_structure_bytes=1))
    with Session(catalog) as session:
        tree = session.execute(sql).to_rows()
    with Session(catalog, config=naive) as session:
        fallback = session.execute(sql).to_rows()
    assert tree == fallback, sql
