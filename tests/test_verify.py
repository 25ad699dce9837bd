"""Structural invariants and sampled shadow verification.

Unit coverage for :mod:`repro.resilience.verify` (value comparison,
result diffing), the structures' ``check_invariants`` oracles (a
corrupt tree of every kind is rejected), and the evaluator dispatch's
shadow sampling (a poisoned fast evaluator is caught by the
naive oracle and surfaces as a typed
:class:`~repro.errors.VerificationError`, never as a wrong result).
"""

import math

import numpy as np
import pytest

from conftest import make_window_table
from repro import Catalog, Session, SessionConfig
from repro.errors import VerificationError
from repro.mst.aggregates import SUM
from repro.mst.tree import MergeSortTree
from repro.ostree.cbtree import CountedBTree
from repro.resilience import ExecutionContext, activate
from repro.resilience.verify import compare_results, values_match
from repro.segtree.tree import SegmentTree
from repro.window.calls import WindowCall
from repro.window.evaluators import distinct as distinct_mod
from repro.window.frame import (
    FrameSpec,
    OrderItem,
    WindowSpec,
    current_row,
    preceding,
)
from repro.window.operator import window_query


# ----------------------------------------------------------------------
# values_match / compare_results
# ----------------------------------------------------------------------
def test_values_match_nulls():
    assert values_match(None, None)
    assert not values_match(None, 0)
    assert not values_match(0, None)


def test_values_match_floats_tolerate_summation_drift():
    assert values_match(0.1 + 0.2, 0.3)
    assert not values_match(0.3, 0.3001)
    assert values_match(float("nan"), float("nan"))
    assert not values_match(float("nan"), 0.0)
    assert values_match(2.0, 2)  # mixed float/int


def test_values_match_exact_for_non_floats():
    assert values_match(3, 3)
    assert not values_match(3, 4)
    assert values_match("a", "a")


def test_compare_results_finds_first_divergence():
    assert compare_results([1, 2, 3], [1, 2, 3]) is None
    assert compare_results([1, 9, 3], [1, 2, 3]) == (1, 9, 2)
    assert compare_results([], []) is None


def test_compare_results_length_mismatch():
    assert compare_results([1, 2, 3], [1, 2]) == (2, 3, None)
    assert compare_results([1], [1, 7]) == (1, None, 7)


# ----------------------------------------------------------------------
# structural invariants: the trees' check_invariants oracles
# ----------------------------------------------------------------------
def _mst(n=257, seed=3):
    rng = np.random.default_rng(seed)
    return MergeSortTree(rng.permutation(n), fanout=4, aggregate=SUM,
                         payload=rng.normal(size=n))


def test_healthy_structures_pass():
    _mst().check_invariants()
    SegmentTree(np.arange(33, dtype=float), kind="sum").check_invariants()
    tree = CountedBTree(order=4)
    for key in range(50):
        tree.insert(key % 7)
    tree.check_invariants()


def test_corrupt_mst_is_rejected_naming_the_level():
    # A tree keeps level 0, its bridges and the top-level key counts;
    # one corrupted entry in any of them is caught, by level.
    tree = _mst()
    # One input key silently off: its bridges no longer merge it.
    tree.levels.keys[0][0] = tree.levels.keys[0][1] + 1
    with pytest.raises(ValueError, match="level 1 not sorted"):
        tree.check_invariants()
    tree = _mst()
    tree.levels.bridges[2][1, 40] += 1
    with pytest.raises(ValueError, match="level 2 bridge"):
        tree.check_invariants()
    tree = _mst()
    tree.levels.top.table[10] += 1
    with pytest.raises(ValueError, match="top-level key counts"):
        tree.check_invariants()


def test_corrupt_segment_tree_is_rejected():
    tree = SegmentTree(np.arange(33, dtype=float), kind="sum")
    tree.levels[1][0] += 1.0
    with pytest.raises(ValueError):
        tree.check_invariants()


def test_corrupt_cbtree_size_cache_is_rejected():
    tree = CountedBTree(order=4)
    for key in range(50):
        tree.insert(key)
    tree.root.size += 1
    with pytest.raises(AssertionError):
        tree.check_invariants()


def test_corrupt_cbtree_separator_key_is_rejected():
    tree = CountedBTree(order=4)
    for key in range(50):
        tree.insert(key)
    assert not tree.root.is_leaf
    # A corrupted separator breaks cross-node order even though every
    # node stays locally sorted.
    tree.root.keys[0] += 100
    with pytest.raises(AssertionError):
        tree.check_invariants()


def test_tree_missing_a_bridge_is_rejected():
    """Every query descends through the bridges, so a tree that lost
    one fails its invariants, not a probe."""
    tree = _mst()
    level = tree.height // 2
    tree.levels.anchors[level] = tree.levels.bridges[level] = None
    with pytest.raises(ValueError, match="bridge"):
        tree.check_invariants()


# ----------------------------------------------------------------------
# shadow sampling
# ----------------------------------------------------------------------
def test_shadow_sample_rate_bounds():
    ctx = ExecutionContext(verify_rate=0.0)
    assert not any(ctx.shadow_sample() for _ in range(100))
    ctx = ExecutionContext(verify_rate=1.0)
    assert all(ctx.shadow_sample() for _ in range(100))
    with pytest.raises(ValueError):
        ExecutionContext(verify_rate=1.5)
    with pytest.raises(ValueError):
        ExecutionContext(verify_rate=-0.1)


def test_shadow_sample_is_deterministic_and_seeded():
    a = ExecutionContext(verify_rate=0.3, verify_seed=7)
    b = ExecutionContext(verify_rate=0.3, verify_seed=7)
    seq_a = [a.shadow_sample() for _ in range(200)]
    seq_b = [b.shadow_sample() for _ in range(200)]
    assert seq_a == seq_b
    assert 10 < sum(seq_a) < 120  # roughly the asked-for rate
    c = ExecutionContext(verify_rate=0.3, verify_seed=8)
    assert [c.shadow_sample() for _ in range(200)] != seq_a


# ----------------------------------------------------------------------
# shadow verification end to end
# ----------------------------------------------------------------------
TABLE = make_window_table(n=120, seed=11)
SPEC = WindowSpec(partition_by=("g",), order_by=(OrderItem("o"),),
                  frame=FrameSpec.rows(preceding(8), current_row()))


def _poison_distinct(monkeypatch):
    """Corrupt the fast distinct evaluator's first output row; the
    naive oracle path stays honest."""
    original = distinct_mod.evaluate

    def poisoned(call, part):
        result = original(call, part)
        if call.algorithm != "naive":
            values, _validity = result
            values[0] += 1
        return result

    monkeypatch.setattr(distinct_mod, "evaluate", poisoned)


def test_shadow_verification_catches_poisoned_evaluator(monkeypatch):
    _poison_distinct(monkeypatch)
    call = WindowCall("count", ["x"], distinct=True)
    ctx = ExecutionContext(verify_rate=1.0)
    with activate(ctx):
        with pytest.raises(VerificationError) as info:
            window_query(TABLE, [call], SPEC)
    assert "count[mst]" in str(info.value)
    assert ctx.health.verification_failures >= 1


def test_rate_zero_never_invokes_the_oracle(monkeypatch):
    # With sampling off the poisoned result sails through: the test
    # documents that rate 0 really is "no shadow checks at all".
    _poison_distinct(monkeypatch)
    call = WindowCall("count", ["x"], distinct=True)
    ctx = ExecutionContext()
    with activate(ctx):
        window_query(TABLE, [call], SPEC)
    assert ctx.health.verifications == 0


def test_healthy_shadow_verification_is_silent():
    call = WindowCall("count", ["x"], distinct=True)
    baseline = ExecutionContext()
    with activate(baseline):
        expected = window_query(TABLE, [call], SPEC)
    ctx = ExecutionContext(verify_rate=1.0)
    with activate(ctx):
        verified = window_query(TABLE, [call], SPEC)
    assert (verified.columns[-1].to_list()
            == expected.columns[-1].to_list())
    assert ctx.health.verifications > 0
    assert ctx.health.verification_failures == 0


def test_session_level_shadow_verification():
    catalog = Catalog({"t": make_window_table(100)})
    sql = """
        select g, count(distinct x) over w as uniq
        from t
        window w as (partition by g order by o
                     rows between 10 preceding and current row)
    """
    with Session(catalog, config=SessionConfig(verify_rate=1.0)) as session:
        session.execute(sql)
        health = session.health_stats()
        assert health.verifications > 0
        assert health.verification_failures == 0
        # Routine verification is not an "event": EXPLAIN stays quiet.
        assert "Resilience" not in session.explain(sql)
