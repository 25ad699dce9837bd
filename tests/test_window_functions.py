"""Every framed window function: merge sort tree vs the naive oracle.

The central correctness suite: a grid of frame specifications (ROWS /
RANGE / GROUPS, exclusions, per-row offsets) crossed with every function
family, each evaluated by both the MST algorithms and the brute-force
oracle. NULLs are present in the data throughout.
"""

import numpy as np
import pytest

from conftest import assert_columns_equal, make_window_table
from repro.mst.aggregates import make_udaf
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

TABLE = make_window_table(n=140, seed=7)

SPECS = {
    "sliding": WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(6), current_row())),
    "centered": WindowSpec(order_by=(OrderItem("o"),),
                           frame=FrameSpec.rows(preceding(4), following(5))),
    "range": WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                        frame=FrameSpec.range(preceding(8), following(3))),
    "groups": WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                         frame=FrameSpec.groups(preceding(2), following(1))),
    "exclude_current": WindowSpec(
        partition_by=("g",), order_by=(OrderItem("o"),),
        frame=FrameSpec.rows(preceding(7), following(4),
                             FrameExclusion.CURRENT_ROW)),
    "exclude_group": WindowSpec(
        partition_by=("g",), order_by=(OrderItem("o"),),
        frame=FrameSpec.rows(preceding(7), following(4),
                             FrameExclusion.GROUP)),
    "exclude_ties": WindowSpec(
        partition_by=("g",), order_by=(OrderItem("o"),),
        frame=FrameSpec.rows(preceding(7), following(4),
                             FrameExclusion.TIES)),
    "running": WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(unbounded_preceding(),
                                               current_row())),
    "everything_after": WindowSpec(
        order_by=(OrderItem("o"),),
        frame=FrameSpec.rows(current_row(), unbounded_following())),
}


def run_both(call_kwargs, spec):
    mst = WindowCall(**{**call_kwargs, "algorithm": "mst"})
    naive = WindowCall(**{**call_kwargs, "algorithm": "naive"})
    got = window_query(TABLE, [mst], spec).columns[-1].to_list()
    want = window_query(TABLE, [naive], spec).columns[-1].to_list()
    assert_columns_equal(got, want)
    return got


@pytest.mark.parametrize("spec_name", sorted(SPECS))
class TestAllFamiliesAgainstOracle:
    def test_count_distinct(self, spec_name):
        run_both(dict(function="count", args=("x",), distinct=True),
                 SPECS[spec_name])

    def test_sum_distinct(self, spec_name):
        run_both(dict(function="sum", args=("x",), distinct=True),
                 SPECS[spec_name])

    def test_avg_distinct(self, spec_name):
        run_both(dict(function="avg", args=("x",), distinct=True),
                 SPECS[spec_name])

    def test_min_max_distinct(self, spec_name):
        run_both(dict(function="min", args=("x",), distinct=True),
                 SPECS[spec_name])
        run_both(dict(function="max", args=("x",), distinct=True),
                 SPECS[spec_name])

    def test_rank(self, spec_name):
        run_both(dict(function="rank",
                      order_by=(OrderItem("y", descending=True),)),
                 SPECS[spec_name])

    def test_dense_rank(self, spec_name):
        run_both(dict(function="dense_rank", order_by=(OrderItem("x"),)),
                 SPECS[spec_name])

    def test_row_number(self, spec_name):
        run_both(dict(function="row_number", order_by=(OrderItem("y"),)),
                 SPECS[spec_name])

    def test_percent_rank(self, spec_name):
        run_both(dict(function="percent_rank", order_by=(OrderItem("y"),)),
                 SPECS[spec_name])

    def test_cume_dist(self, spec_name):
        run_both(dict(function="cume_dist", order_by=(OrderItem("y"),)),
                 SPECS[spec_name])

    def test_ntile(self, spec_name):
        run_both(dict(function="ntile", buckets=3,
                      order_by=(OrderItem("y"),)), SPECS[spec_name])

    def test_percentile_disc(self, spec_name):
        run_both(dict(function="percentile_disc", args=("y",),
                      fraction=0.9), SPECS[spec_name])

    def test_percentile_cont(self, spec_name):
        run_both(dict(function="percentile_cont", args=("y",),
                      fraction=0.25), SPECS[spec_name])

    def test_median(self, spec_name):
        run_both(dict(function="median", args=("y",)), SPECS[spec_name])

    def test_first_value(self, spec_name):
        run_both(dict(function="first_value", args=("x",),
                      order_by=(OrderItem("y"),)), SPECS[spec_name])

    def test_last_value(self, spec_name):
        run_both(dict(function="last_value", args=("x",)),
                 SPECS[spec_name])

    def test_nth_value(self, spec_name):
        run_both(dict(function="nth_value", args=("y",), nth=3),
                 SPECS[spec_name])

    def test_nth_value_from_last_ignore_nulls(self, spec_name):
        run_both(dict(function="nth_value", args=("x",), nth=2,
                      from_last=True, ignore_nulls=True),
                 SPECS[spec_name])

    def test_lead(self, spec_name):
        run_both(dict(function="lead", args=("y",), offset=2,
                      order_by=(OrderItem("y"),)), SPECS[spec_name])

    def test_lag_with_default(self, spec_name):
        run_both(dict(function="lag", args=("x",), offset=1, default=-99),
                 SPECS[spec_name])

    def test_plain_aggregates(self, spec_name):
        for fn in ("sum", "avg", "min", "max", "count"):
            run_both(dict(function=fn, args=("y",)), SPECS[spec_name])
        run_both(dict(function="count_star"), SPECS[spec_name])

    def test_filter_clause(self, spec_name):
        run_both(dict(function="median", args=("y",), filter_where="flag"),
                 SPECS[spec_name])
        run_both(dict(function="count", args=("x",), distinct=True,
                      filter_where="flag"), SPECS[spec_name])
        run_both(dict(function="rank", order_by=(OrderItem("y"),),
                      filter_where="flag"), SPECS[spec_name])


class TestNonMonotonicFrames:
    """Section 6.5: per-row offsets produce non-monotonic frames."""

    def _spec(self, seed=3):
        rng = np.random.default_rng(seed)
        n = TABLE.num_rows
        start = rng.integers(0, 30, size=n)
        end = rng.integers(0, 30, size=n)
        return WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(start),
                                               following(end)))

    def test_median(self):
        run_both(dict(function="median", args=("y",)), self._spec())

    def test_count_distinct(self):
        run_both(dict(function="count", args=("x",), distinct=True),
                 self._spec())

    def test_rank(self):
        run_both(dict(function="rank", order_by=(OrderItem("y"),)),
                 self._spec())

    def test_lead(self):
        run_both(dict(function="lead", args=("y",),
                      order_by=(OrderItem("y"),)), self._spec())

    def test_empty_frames_possible(self):
        n = TABLE.num_rows
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(following(5), following(2)))
        got = run_both(dict(function="median", args=("y",)), spec)
        assert all(v is None for v in got)


class TestUdaf:
    def test_udaf_distinct_framed(self):
        """A user-defined product aggregate with DISTINCT framing —
        merge only, no inverse (Section 4.3)."""
        product = make_udaf("product", identity=None,
                            lift=lambda v: v,
                            merge=lambda a, b: b if a is None
                            else (a if b is None else a * b))
        spec = SPECS["sliding"]
        run_both(dict(function="udaf", args=("x",), distinct=True,
                      udaf=product), spec)

    def test_udaf_plain_framed(self):
        concat_len = make_udaf("sumlen", identity=0,
                               lift=lambda v: 1,
                               merge=lambda a, b: a + b)
        run_both(dict(function="udaf", args=("y",), udaf=concat_len),
                 SPECS["centered"])

    def test_udaf_distinct_with_exclusion_falls_back(self):
        product = make_udaf("product", identity=None,
                            lift=lambda v: v,
                            merge=lambda a, b: b if a is None
                            else (a if b is None else a * b))
        run_both(dict(function="udaf", args=("x",), distinct=True,
                      udaf=product), SPECS["exclude_ties"])

