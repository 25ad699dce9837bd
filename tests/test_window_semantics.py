"""SQL-standard semantic laws of the window functions.

Beyond agreeing with the oracle, the functions must satisfy the
standard's intrinsic laws: rank bounds, NTILE's balanced buckets,
CUME_DIST monotonicity over peers, FIRST/LAST duality, LEAD/LAG
symmetry, and NULL-handling rules.
"""

import numpy as np
import pytest

from repro.sql import Catalog, execute
from repro.table import DataType, Table
from repro.window import (
    FrameExclusion,
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    preceding,
    unbounded_following,
    unbounded_preceding,
    window_query,
)
from repro.window.frame import OrderItem


def _table(n=80, seed=21, nulls=0.15):
    rng = np.random.default_rng(seed)
    xs = [int(v) if rng.random() > nulls else None
          for v in rng.integers(0, 10, n)]
    return Table.from_dict({
        "o": (DataType.INT64, [int(v) for v in rng.integers(0, 25, n)]),
        "x": (DataType.INT64, xs),
        "y": (DataType.FLOAT64, [float(v) for v in rng.integers(0, 7, n)]),
    })


FULL = WindowSpec(order_by=(OrderItem("o"),),
                  frame=FrameSpec.rows(unbounded_preceding(),
                                       unbounded_following()))
SLIDING = WindowSpec(order_by=(OrderItem("o"),),
                     frame=FrameSpec.rows(preceding(10), current_row()))


def run(call, spec=FULL, table=None):
    return window_query(table if table is not None else _table(),
                        [call], spec).columns[-1].to_list()


class TestRankLaws:
    def test_rank_bounds(self):
        table = _table()
        ranks = run(WindowCall("rank", order_by=(OrderItem("y"),)),
                    FULL, table)
        assert all(1 <= r <= table.num_rows for r in ranks)
        assert min(ranks) == 1

    def test_row_number_is_a_permutation(self):
        table = _table()
        rns = run(WindowCall("row_number", order_by=(OrderItem("y"),)),
                  FULL, table)
        assert sorted(rns) == list(range(1, table.num_rows + 1))

    def test_rank_leq_row_number(self):
        table = _table()
        ranks = run(WindowCall("rank", order_by=(OrderItem("y"),)),
                    FULL, table)
        rns = run(WindowCall("row_number", order_by=(OrderItem("y"),)),
                  FULL, table)
        assert all(r <= n for r, n in zip(ranks, rns))

    def test_dense_rank_leq_rank_and_contiguous(self):
        table = _table()
        dense = run(WindowCall("dense_rank", order_by=(OrderItem("y"),)),
                    FULL, table)
        ranks = run(WindowCall("rank", order_by=(OrderItem("y"),)),
                    FULL, table)
        assert all(d <= r for d, r in zip(dense, ranks))
        assert set(dense) == set(range(1, max(dense) + 1)), \
            "dense ranks leave no gaps"

    def test_percent_rank_and_cume_dist_ranges(self):
        table = _table()
        pr = run(WindowCall("percent_rank", order_by=(OrderItem("y"),)),
                 FULL, table)
        cd = run(WindowCall("cume_dist", order_by=(OrderItem("y"),)),
                 FULL, table)
        assert all(0.0 <= v <= 1.0 for v in pr)
        assert all(0.0 < v <= 1.0 for v in cd)
        assert max(cd) == pytest.approx(1.0)

    def test_equal_keys_share_rank_and_cume_dist(self):
        table = Table.from_dict({
            "o": (DataType.INT64, [1, 2, 3, 4]),
            "y": (DataType.FLOAT64, [5.0, 5.0, 5.0, 9.0]),
        })
        ranks = run(WindowCall("rank", order_by=(OrderItem("y"),)),
                    FULL, table)
        cd = run(WindowCall("cume_dist", order_by=(OrderItem("y"),)),
                 FULL, table)
        assert ranks == [1, 1, 1, 4]
        assert cd[:3] == [0.75, 0.75, 0.75]

    def test_ntile_balanced(self):
        table = _table(n=50)
        for buckets in (2, 3, 7, 50, 60):
            tiles = run(WindowCall("ntile", buckets=buckets,
                                   order_by=(OrderItem("y"),)),
                        FULL, table)
            counts = {}
            for t in tiles:
                counts[t] = counts.get(t, 0) + 1
            sizes = sorted(counts.values())
            assert sizes[-1] - sizes[0] <= 1, \
                f"NTILE({buckets}) buckets must differ by at most 1"
            assert min(counts) == 1
            assert max(counts) <= buckets


class TestValueFunctionLaws:
    def test_first_value_is_the_minimum(self):
        """FIRST_VALUE of y ordered by y equals MIN(y) — the duality law
        that holds even with ties (full FIRST/LAST duality would need a
        strict order)."""
        table = _table(nulls=0.0)
        firsts = run(WindowCall("first_value", ("y",),
                                order_by=(OrderItem("y"),)), SLIDING, table)
        mins = run(WindowCall("min", ("y",)), SLIDING, table)
        assert firsts == mins

    def test_nth_value_1_is_first_value(self):
        table = _table(nulls=0.0)
        nth1 = run(WindowCall("nth_value", ("x",), nth=1,
                              order_by=(OrderItem("y"),)), SLIDING, table)
        first = run(WindowCall("first_value", ("x",),
                               order_by=(OrderItem("y"),)), SLIDING, table)
        assert nth1 == first

    def test_nth_from_last_1_is_last_value(self):
        table = _table(nulls=0.0)
        nth = run(WindowCall("nth_value", ("x",), nth=1, from_last=True,
                             order_by=(OrderItem("y"),)), SLIDING, table)
        last = run(WindowCall("last_value", ("x",),
                              order_by=(OrderItem("y"),)), SLIDING, table)
        assert nth == last

    def test_respect_nulls_can_return_null(self):
        table = Table.from_dict({
            "o": (DataType.INT64, [1, 2]),
            "x": (DataType.INT64, [None, 5]),
        })
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(unbounded_preceding(),
                                               unbounded_following()))
        respect = run(WindowCall("first_value", ("x",)), spec, table)
        ignore = run(WindowCall("first_value", ("x",),
                                ignore_nulls=True), spec, table)
        assert respect == [None, None]
        assert ignore == [5, 5]

    def test_out_of_range_nth_is_null(self):
        table = _table(n=5, nulls=0.0)
        nth = run(WindowCall("nth_value", ("x",), nth=99), FULL, table)
        assert nth == [None] * 5


class TestNavigationLaws:
    def test_lead_shifts_sorted_sequence(self):
        table = _table(nulls=0.0)
        ys = table.column("y").to_list()
        os_ = table.column("o").to_list()
        # function-order ties break by partition position (the window
        # ORDER BY o), not by original row index
        partition_pos = {row: p for p, row in enumerate(
            sorted(range(len(ys)), key=lambda i: (os_[i], i)))}
        order = sorted(range(len(ys)),
                       key=lambda i: (ys[i], partition_pos[i]))
        lead1 = run(WindowCall("lead", ("y",),
                               order_by=(OrderItem("y"),)), FULL, table)
        for position, row in enumerate(order[:-1]):
            assert lead1[row] == ys[order[position + 1]]
        assert lead1[order[-1]] is None

    def test_lead_offset_zero_is_identity(self):
        table = _table(nulls=0.0)
        zero = run(WindowCall("lead", ("y",), offset=0,
                              order_by=(OrderItem("y"),)), FULL, table)
        assert zero == table.column("y").to_list()

    def test_default_fills_out_of_frame(self):
        table = _table(n=6, nulls=0.0)
        lag = run(WindowCall("lag", ("y",), offset=99, default=-1.0),
                  FULL, table)
        assert lag == [-1.0] * 6


class TestAggregateLaws:
    def test_count_distinct_at_most_count(self):
        table = _table()
        distinct = run(WindowCall("count", ("x",), distinct=True),
                       SLIDING, table)
        plain = run(WindowCall("count", ("x",)), SLIDING, table)
        assert all(d <= c for d, c in zip(distinct, plain))

    def test_sum_distinct_at_most_sum_for_positive(self):
        table = _table(nulls=0.0)
        sd = run(WindowCall("sum", ("x",), distinct=True), SLIDING, table)
        s = run(WindowCall("sum", ("x",)), SLIDING, table)
        assert all(a <= b for a, b in zip(sd, s))

    def test_median_between_min_and_max(self):
        table = _table(nulls=0.0)
        med = run(WindowCall("median", ("y",)), SLIDING, table)
        lo = run(WindowCall("min", ("y",)), SLIDING, table)
        hi = run(WindowCall("max", ("y",)), SLIDING, table)
        assert all(a <= m <= b for a, m, b in zip(lo, med, hi))

    def test_percentile_monotone_in_fraction(self):
        table = _table(nulls=0.0)
        previous = None
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            current = run(WindowCall("percentile_disc", ("y",),
                                     fraction=fraction), SLIDING, table)
            if previous is not None:
                assert all(a <= b for a, b in zip(previous, current))
            previous = current

    def test_mode_is_a_frame_member(self):
        table = _table(nulls=0.0)
        modes = run(WindowCall("mode", ("x",)), SLIDING, table)
        counts = run(WindowCall("count_star"), SLIDING, table)
        xs = table.column("x").to_list()
        o = table.column("o").to_list()
        order = sorted(range(len(xs)), key=lambda i: (o[i], i))
        for position, row in enumerate(order):
            frame_rows = order[max(position - 10, 0):position + 1]
            assert modes[row] in {xs[j] for j in frame_rows}
        del counts


class TestNaNIsOneValue:
    """All NaNs are one value — in DISTINCT, in ranks and in peer
    groups — as GROUP BY has them. The expected values are spelled out:
    the ``naive`` algorithm shares the rank keys and peer groups, so
    comparing against it cannot catch a regression here."""

    Y = [float("nan"), 1.0, float("nan"), 1.0, float("nan")]

    def _table(self):
        return Table.from_dict({"o": (DataType.INT64, list(range(5))),
                                "y": (DataType.FLOAT64, self.Y)},
                               name="t")

    @pytest.mark.parametrize("algorithm", ["mst", "naive"])
    def test_count_distinct(self, algorithm):
        table = self._table()
        got = run(WindowCall("count", ("y",), distinct=True,
                             algorithm=algorithm), FULL, table)
        assert got == [2] * 5
        grouped = execute("SELECT count(DISTINCT y) AS c FROM t",
                          Catalog({"t": table}))
        assert grouped.column("c").to_list() == [2]

    @pytest.mark.parametrize("algorithm", ["mst", "naive"])
    def test_sum_distinct_with_nan_excluded(self, algorithm):
        spec = WindowSpec(order_by=(OrderItem("o"),), frame=FrameSpec.rows(
            unbounded_preceding(), unbounded_following(),
            FrameExclusion.CURRENT_ROW))
        table = Table.from_dict({
            "o": (DataType.INT64, list(range(4))),
            "y": (DataType.FLOAT64, [1.0, float("nan"), 2.0, 2.0])})
        got = run(WindowCall("sum", ("y",), distinct=True,
                             algorithm=algorithm), spec, table)
        assert got[1] == 3.0
        assert all(np.isnan(got[i]) for i in (0, 2, 3))

    def test_rank_and_dense_rank(self):
        table = self._table()
        order = (OrderItem("y"),)
        assert run(WindowCall("rank", order_by=order), FULL, table) == \
            [3, 1, 3, 1, 3]
        assert run(WindowCall("dense_rank", order_by=order), FULL,
                   table) == [2, 1, 2, 1, 2]

    @pytest.mark.parametrize("mode", [FrameSpec.groups, FrameSpec.range])
    def test_peer_groups(self, mode):
        spec = WindowSpec(order_by=(OrderItem("y"),),
                          frame=mode(current_row(), current_row()))
        got = run(WindowCall("count_star"), spec, self._table())
        assert got == [3, 2, 3, 2, 3]
