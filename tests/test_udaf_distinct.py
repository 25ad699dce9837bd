"""UDAF ``DISTINCT`` windows: the ``mst`` path equals ``naive``.

The ``mst`` path merges the prefix states of each frame's covering runs
in one batched descent (Section 4.3); ``naive`` folds the frame's
distinct values row by row. With exact, commutative merges the two must
agree value for value over ROWS / RANGE / GROUPS frames, NULL
arguments, empty frames, PARTITION BY, and batches split into blocks of
a few queries. EXCLUDE frames take the naive fallback by design (a UDAF
has no inverse to subtract the holes with) and are covered too.

Run longer with ``--hypothesis-profile=long``.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mst.vectorized as vectorized
from repro.mst.aggregates import make_udaf
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
from repro.window.frame import OrderItem

# No max_examples: the count comes from the active Hypothesis profile.
generated = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

UDAFS = {
    "bit_or": make_udaf("bit_or", identity=0, lift=lambda v: v,
                        merge=lambda a, b: a | b),
    "product": make_udaf("product", identity=1, lift=lambda v: v,
                         merge=lambda a, b: a * b),
    "count": make_udaf("count", identity=0, lift=lambda v: 1,
                       merge=lambda a, b: a + b),
}
MODES = {"rows": FrameSpec.rows, "groups": FrameSpec.groups,
         "range": FrameSpec.range}

_OFFSET = st.builds(lambda side, k: side(k),
                    st.sampled_from([preceding, following]),
                    st.integers(0, 4))
_START = st.one_of(st.builds(unbounded_preceding), st.builds(current_row),
                   _OFFSET)
_END = st.one_of(st.builds(unbounded_following), st.builds(current_row),
                 _OFFSET)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 40))
    table = Table.from_dict({
        "g": (DataType.INT64, draw(st.lists(st.integers(0, 2),
                                            min_size=n, max_size=n))),
        "o": (DataType.INT64, draw(st.lists(st.integers(0, 8),
                                            min_size=n, max_size=n))),
        "x": (DataType.INT64, draw(st.lists(st.none() | st.integers(-3, 9),
                                            min_size=n, max_size=n))),
    })
    exclusion = draw(st.sampled_from(
        [FrameExclusion.NO_OTHERS] * 4 + list(FrameExclusion)))
    frame = MODES[draw(st.sampled_from(sorted(MODES)))](
        draw(_START), draw(_END), exclusion)
    spec = WindowSpec(partition_by=("g",) if draw(st.booleans()) else (),
                      order_by=(OrderItem("o"),), frame=frame)
    return table, spec


@generated
@given(cases(), st.sampled_from(sorted(UDAFS)), st.integers(1, 8))
def test_udaf_distinct_mst_equals_naive(case, name, block_rows):
    table, spec = case

    def run(algorithm):
        call = WindowCall("udaf", ("x",), distinct=True, udaf=UDAFS[name],
                          algorithm=algorithm)
        return window_query(table, [call], spec).columns[-1].to_list()

    with mock.patch.object(vectorized, "BLOCK_ROWS", block_rows):
        got = run("mst")
    assert got == run("naive")
