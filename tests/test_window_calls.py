"""WindowCall validation."""

import pytest

from repro.errors import WindowFunctionError
from repro.mst.aggregates import SUM
from repro.window.calls import WindowCall
from repro.window.frame import OrderItem


def test_unknown_function():
    with pytest.raises(WindowFunctionError):
        WindowCall("frobnicate")


def test_unknown_option():
    with pytest.raises(WindowFunctionError):
        WindowCall("count", ("x",), nonsense=True)


def test_percentile_fraction_required():
    with pytest.raises(WindowFunctionError):
        WindowCall("percentile_disc", ("x",))
    with pytest.raises(WindowFunctionError):
        WindowCall("percentile_disc", ("x",), fraction=1.5)
    WindowCall("percentile_disc", ("x",), fraction=0.0)
    WindowCall("median", ("x",))  # median needs no fraction


def test_distinct_only_for_aggregates():
    with pytest.raises(WindowFunctionError):
        WindowCall("rank", distinct=True)
    WindowCall("sum", ("x",), distinct=True)


def test_nth_value_requires_position():
    with pytest.raises(WindowFunctionError):
        WindowCall("nth_value", ("x",))
    with pytest.raises(WindowFunctionError):
        WindowCall("nth_value", ("x",), nth=0)
    WindowCall("nth_value", ("x",), nth=3, from_last=True)


def test_ntile_requires_buckets():
    with pytest.raises(WindowFunctionError):
        WindowCall("ntile")
    WindowCall("ntile", buckets=4)


def test_lead_offset_nonnegative():
    with pytest.raises(WindowFunctionError):
        WindowCall("lead", ("x",), offset=-1)
    WindowCall("lag", ("x",), offset=0)


def test_argument_required():
    with pytest.raises(WindowFunctionError):
        WindowCall("sum")
    with pytest.raises(WindowFunctionError):
        WindowCall("first_value")
    WindowCall("count_star")
    WindowCall("row_number")


@pytest.mark.parametrize("algorithm",
                         ["incremental", "ostree", "segtree", "bogus"])
def test_only_mst_and_naive_algorithms(algorithm):
    """The paper's competitors are benchmark kernels, not engine paths:
    any other algorithm fails at construction, naming the two."""
    with pytest.raises(WindowFunctionError, match="'mst' or 'naive'"):
        WindowCall("sum", ("x",), algorithm=algorithm)
    WindowCall("sum", ("x",), algorithm="naive")


def test_udaf_requires_spec():
    with pytest.raises(WindowFunctionError):
        WindowCall("udaf", ("x",))
    WindowCall("udaf", ("x",), udaf=SUM)


def test_family_classification():
    assert WindowCall("count", ("x",)).family == "aggregate"
    assert WindowCall("count", ("x",), distinct=True).family == "distinct"
    assert WindowCall("rank").family == "rank"
    assert WindowCall("median", ("x",)).family == "percentile"
    assert WindowCall("first_value", ("x",)).family == "value"
    assert WindowCall("lead", ("x",)).family == "navigation"


def test_output_name():
    assert WindowCall("rank").output_name == "rank"
    assert WindowCall("rank", output="r").output_name == "r"


def test_order_by_tuple_normalised():
    call = WindowCall("rank", order_by=[OrderItem("x")])
    assert isinstance(call.order_by, tuple)
