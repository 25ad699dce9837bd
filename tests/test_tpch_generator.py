"""The batched TPC-H generator against the row-by-row one, bit for bit.

:func:`repro.tpch.tpch_tables` emulates numpy's bounded-integer stream
to draw whole columns at once (:func:`~repro.tpch.tables.bounded_draws`).
That rests on ``Generator`` internals that NEP 19 does not freeze, so
these tests compare every column with ``tests/tpch_rowwise.py`` — the
original per-order generator, kept verbatim — and drive the emulation
against sequential ``rng.integers`` calls, including ranges where
Lemire's method rejects about every other word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table.column import DataType
from repro.tpch import tables, tpch_tables
from repro.tpch.tables import _lineitem_draws, bounded_draws
from tpch_rowwise import tpch_tables_rowwise

CASES = [(0.01, 2022)] + [(sf, seed) for sf in (0.001, 0.002)
                          for seed in (1, 77, 31337)]


def _assert_canonical(name, column):
    """The representation rule: what the engine and the benchmark's
    table digest read must not depend on how the table was built."""
    valid = column.validity
    assert isinstance(valid, np.ndarray), name
    assert valid.dtype is np.dtype(np.bool_), name
    raw = column.raw()
    if column.dtype is DataType.STRING:
        assert type(raw) is list, name
        assert all(type(value) is str for value in raw), name
    else:
        assert isinstance(raw, np.ndarray), name
        assert raw.dtype is column.dtype.numpy_dtype, name
        assert raw.flags.c_contiguous, name


@pytest.mark.parametrize("scale_factor,seed", CASES)
def test_tables_match_the_rowwise_generator(scale_factor, seed):
    want = tpch_tables_rowwise(scale_factor, seed)
    got = tpch_tables(scale_factor, seed)
    assert list(got) == list(want)
    for table in want:
        expected, actual = want[table], got[table]
        assert actual.name == expected.name
        assert [(f.name, f.dtype) for f in actual.schema] == \
            [(f.name, f.dtype) for f in expected.schema]
        for field in expected.schema:
            name = f"{table}.{field.name}"
            a, b = expected[field.name], actual[field.name]
            _assert_canonical(name, b)
            assert b.validity.tobytes() == a.validity.tobytes(), name
            if field.dtype is DataType.STRING:
                assert b.raw() == a.raw(), name
            else:
                assert b.raw().dtype is a.raw().dtype, name
                assert b.raw().tobytes() == a.raw().tobytes(), name


def _sequential(rng, ranges):
    return [int(rng.integers(0, r, size=1)[0]) for r in ranges]


#: Small ranges (no rejection in practice), ranges just above 2**31
#: (``(2**32 - r) % r`` is ~2**31: about half the words are rejected)
#: and ranges up to 2**32 itself (taken from the raw word).
RANGES = st.one_of(st.integers(2, 1000),
                   st.integers(2**31 + 1, 2**31 + 1000),
                   st.integers(2**32 - 1000, 2**32))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       before=st.integers(0, 3),
       ranges=st.lists(RANGES, max_size=40))
def test_bounded_draws_match_sequential_integers(seed, before, ranges):
    """Same values, same generator state after, whatever half of a
    64-bit output the stream starts on."""
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    for rng in (want_rng, got_rng):
        rng.integers(0, 10, size=before)
    want = _sequential(want_rng, ranges)
    got = bounded_draws(got_rng, ranges)
    assert got.dtype == np.uint64
    assert got.tolist() == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()
    assert got_rng.integers(0, 7) == want_rng.integers(0, 7)


@pytest.mark.parametrize("npart,norders,batch", [
    (2000, 5000, None), (2**31 + 1, 300, 64)])
def test_lineitem_draws_match_the_per_order_calls(monkeypatch, npart,
                                                  norders, batch):
    """The slot layout over several order batches, also with part-key
    ranges that reject about every other word (``2**31 + 1``)."""
    if batch is not None:
        monkeypatch.setattr(tables, "_ORDERS_PER_BATCH", batch)
    nlines = np.random.default_rng(3).integers(1, 8, size=norders)
    want_rng = np.random.default_rng(11)
    got_rng = np.random.default_rng(11)
    columns = [(1, npart + 1), (0, 4), (1, 51), (0, 11), (0, 9),
               (1, 122), (30, 91), (1, 31), (0, 4), (0, 7), (0, 2)]
    want = [[] for _ in range(13)]
    for n in nlines.tolist():
        for row, (low, high) in enumerate(columns):
            want[row].extend(want_rng.integers(low, high, size=n).tolist())
        for _ in range(n):
            first, second = want_rng.integers(0, 26, size=2).tolist()
            want[11].append(first)
            want[12].append(second)
    got = _lineitem_draws(got_rng, nlines, npart)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_vector_round_of_prices_is_pythons():
    """``np.round(qty * retail, 2)`` is Python's ``round`` on every
    quantity, for part keys well past SF 1."""
    from repro.tpch.generator import _retail_price
    keys = np.random.default_rng(5).integers(1, 10**7, size=4000)
    qty = np.repeat(np.arange(1, 51, dtype=np.float64), len(keys))
    products = qty * _retail_price(np.tile(keys, 50))
    assert np.round(products, 2).tolist() == \
        [round(p, 2) for p in products.tolist()]
