"""Preprocessing passes: Algorithm 1, permutations, rank keys, remaps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess import (
    NO_PREVIOUS,
    IndexRemap,
    dense_rank_keys,
    inverse_permutation,
    permutation_array,
    previous_occurrence,
    previous_occurrence_by_hash,
    row_number_keys,
)
from repro.sortutil import SortColumn


def _prev_oracle(values):
    out = []
    for i, v in enumerate(values):
        prev = NO_PREVIOUS
        for j in range(i - 1, -1, -1):
            if values[j] == v:
                prev = j
                break
        out.append(prev)
    return out


class TestPreviousOccurrence:
    def test_paper_figure_1(self):
        # Figure 1: values a a b b a c b c -> - - ... per the paper's
        # array: [-, -, 1, 2, 1?, ...]; we use the figure's semantics.
        values = np.array([0, 1, 1, 0, 2, 0, 1, 2])  # a b b a c a b c
        got = previous_occurrence(values)
        assert got.tolist() == _prev_oracle(values.tolist())

    def test_sorted_path_matches_oracle(self, rng):
        values = rng.integers(0, 8, size=60)
        assert previous_occurrence(values).tolist() == \
            _prev_oracle(values.tolist())

    def test_dict_path_for_strings(self):
        values = ["a", "b", "a", "c", "b", "a"]
        assert previous_occurrence(values).tolist() == \
            _prev_oracle(values)

    def test_paths_agree(self, rng):
        values = rng.integers(0, 5, size=40)
        sorted_path = previous_occurrence(values)
        dict_path = previous_occurrence(list(values))
        assert np.array_equal(sorted_path, dict_path)

    def test_nulls_are_one_group(self):
        values = [1, None, 2, None, 1]
        validity = np.array([True, False, True, False, True])
        got = previous_occurrence(values, validity=validity)
        assert got.tolist() == [-1, -1, -1, 1, 0]

    def test_empty(self):
        assert len(previous_occurrence(np.array([], dtype=np.int64))) == 0

    def test_all_unique(self):
        got = previous_occurrence(np.arange(10))
        assert (got == NO_PREVIOUS).all()

    def test_all_duplicates(self):
        got = previous_occurrence(np.zeros(5, dtype=np.int64))
        assert got.tolist() == [-1, 0, 1, 2, 3]

    def test_nans_are_one_value(self):
        nan = float("nan")
        values = [nan, 1.0, nan, 1.0, nan]
        want = [-1, -1, 0, 1, 2]
        assert previous_occurrence(np.array(values)).tolist() == want
        assert previous_occurrence(values).tolist() == want
        assert previous_occurrence_by_hash(values).tolist() == want

    @given(st.lists(st.integers(0, 6), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis(self, values):
        got = previous_occurrence(np.asarray(values, dtype=np.int64))
        assert got.tolist() == _prev_oracle(values)


class TestPermutation:
    def test_permutation_and_inverse(self, rng):
        values = rng.integers(0, 100, size=40)
        perm = permutation_array([SortColumn(values)], 40)
        # perm lists frame positions in ascending value order
        sorted_values = values[perm]
        assert np.all(sorted_values[:-1] <= sorted_values[1:])
        inv = inverse_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(40))
        assert np.array_equal(inv[perm], np.arange(40))

    def test_stability(self):
        values = np.array([5, 1, 5, 1])
        perm = permutation_array([SortColumn(values)], 4)
        assert perm.tolist() == [1, 3, 0, 2]

    def test_empty_order_is_identity(self):
        perm = permutation_array([], 5)
        assert perm.tolist() == [0, 1, 2, 3, 4]


class TestRankKeys:
    def test_dense_keys_share_ties(self):
        values = np.array([30, 10, 20, 10, 30])
        keys = dense_rank_keys([SortColumn(values)], 5)
        assert keys.tolist() == [2, 0, 1, 0, 2]

    def test_row_number_keys_unique(self):
        values = np.array([30, 10, 20, 10, 30])
        keys = row_number_keys([SortColumn(values)], 5)
        assert sorted(keys.tolist()) == [0, 1, 2, 3, 4]
        # ties broken by position: first 10 before second 10
        assert keys[1] < keys[3]
        assert keys[0] < keys[4]

    def test_descending(self):
        values = np.array([1, 3, 2])
        keys = dense_rank_keys(
            [SortColumn(values, descending=True)], 3)
        assert keys.tolist() == [2, 0, 1]

    def test_nans_share_a_key(self):
        values = np.array([np.nan, 1.0, np.nan, 1.0, np.nan])
        keys = dense_rank_keys([SortColumn(values)], 5)
        assert keys.tolist() == [1, 0, 1, 0, 1]

    def test_multi_key(self):
        a = np.array([1, 1, 2])
        b = np.array([9, 3, 0])
        keys = dense_rank_keys([SortColumn(a), SortColumn(b)], 3)
        assert keys.tolist() == [1, 0, 2]


class TestIndexRemap:
    def test_bounds_translation(self):
        keep = np.array([True, False, True, True, False, True])
        remap = IndexRemap(keep)
        assert remap.n_filtered == 4
        assert remap.to_filtered_bound(0) == 0
        assert remap.to_filtered_bound(2) == 1
        assert remap.to_filtered_bound(6) == 4
        assert remap.bounds_to_filtered(1, 5) == (1, 3)

    def test_roundtrip(self):
        keep = np.array([False, True, True, False, True])
        remap = IndexRemap(keep)
        for filtered in range(remap.n_filtered):
            full = remap.to_full(filtered)
            assert keep[full]
            assert remap.to_filtered_bound(full) == filtered

    def test_arrays(self):
        keep = np.array([True, False, True])
        remap = IndexRemap(keep)
        got = remap.bounds_array_to_filtered(np.array([-1, 0, 1, 2, 3, 9]))
        assert got.tolist() == [0, 0, 1, 1, 2, 2]
        assert remap.to_full_array(np.array([0, 1])).tolist() == [0, 2]

    def test_is_kept(self):
        remap = IndexRemap(np.array([True, False]))
        assert remap.is_kept(0) and not remap.is_kept(1)


class TestPreviousOccurrenceByHash:
    """The Section 6.7 hash-sorting formulation of Algorithm 1."""

    def test_matches_dict_path_on_strings(self, rng):
        from repro.preprocess import previous_occurrence_by_hash
        values = [f"v{v}" for v in rng.integers(0, 6, size=80)]
        assert previous_occurrence_by_hash(values).tolist() == \
            previous_occurrence(values).tolist()

    def test_matches_sorted_path_on_ints(self, rng):
        from repro.preprocess import previous_occurrence_by_hash
        values = rng.integers(0, 8, size=70)
        assert previous_occurrence_by_hash(list(values)).tolist() == \
            previous_occurrence(values).tolist()

    def test_hash_collisions_resolved_exactly(self):
        from repro.preprocess import previous_occurrence_by_hash

        class Collider:
            """All instances hash alike; equality by payload."""

            def __init__(self, payload):
                self.payload = payload

            def __hash__(self):
                return 42

            def __eq__(self, other):
                return isinstance(other, Collider) \
                    and self.payload == other.payload

        values = [Collider(p) for p in ["a", "b", "a", "c", "b", "a"]]
        got = previous_occurrence_by_hash(values)
        assert got.tolist() == [-1, -1, 0, -1, 1, 2]

    def test_nulls_form_one_group(self):
        import numpy as np
        from repro.preprocess import previous_occurrence_by_hash
        values = [1, None, 2, None, 1]
        validity = np.array([True, False, True, False, True])
        got = previous_occurrence_by_hash(values, validity=validity)
        assert got.tolist() == [-1, -1, -1, 1, 0]

    def test_empty(self):
        from repro.preprocess import previous_occurrence_by_hash
        assert len(previous_occurrence_by_hash([])) == 0

    def test_string_distinct_count_through_engine(self, rng):
        """String framed COUNT DISTINCT exercises the hash path."""
        from repro.table import DataType, Table
        from repro.window import (FrameSpec, WindowCall, WindowSpec,
                                  current_row, preceding, window_query)
        from repro.window.frame import OrderItem
        n = 90
        table = Table.from_dict({
            "o": (DataType.INT64, [int(v) for v in rng.integers(0, 30, n)]),
            "s": (DataType.STRING,
                  [f"u{v}" for v in rng.integers(0, 7, n)]),
        })
        spec = WindowSpec(order_by=(OrderItem("o"),),
                          frame=FrameSpec.rows(preceding(9), current_row()))
        got = window_query(
            table, [WindowCall("count", ("s",), distinct=True)],
            spec).columns[-1].to_list()
        want = window_query(
            table, [WindowCall("count", ("s",), distinct=True,
                               algorithm="naive")],
            spec).columns[-1].to_list()
        assert got == want
