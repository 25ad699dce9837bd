"""The paper's contenders (Section 5.5) as frame kernels over one
resolved partition.

Every figure and table that compares algorithms times them the same
way: :func:`partition` sorts the table and resolves the spec's frames
once, outside the timer, and each contender is a ``kernel(part)`` that
answers one call over that :class:`~repro.window.partition.PartitionView`
as Python values in partition order (None = NULL).

* ``mst`` and ``naive`` are the engine's two paths, through
  :func:`~repro.window.evaluators.evaluate_call`; the MST build happens
  inside the kernel, so inside the timer.
* ``incremental`` (Wesley & Xu [38]), ``ostree`` (a counted B-tree
  [35]) and ``segtree`` (the sorted-list segment tree [1]) follow the
  frame arrays ``part.start`` / ``part.end`` in their published form:
  no EXCLUDE, no FILTER and no NULL argument.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Tuple

from repro.baselines.incremental import (
    incremental_distinct_count,
    incremental_percentile_disc,
)
from repro.ostree.windowed import (
    windowed_percentile_ostree,
    windowed_rank_ostree,
)
from repro.preprocess.rankkeys import dense_rank_keys
from repro.rangemode.incremental import windowed_mode
from repro.segtree.holistic import windowed_percentile_segtree
from repro.table.table import Table
from repro.window.calls import ALGORITHMS, WindowCall
from repro.window.evaluators import evaluate_call
from repro.window.evaluators.common import python_values, to_list
from repro.window.frame import WindowSpec
from repro.window.operator import _build_view, _column_data
from repro.window.partition import PartitionView, sort_group

Kernel = Callable[[PartitionView], List[Any]]


def partition(table: Table, spec: WindowSpec) -> PartitionView:
    """``table`` sorted by ``spec``'s ORDER BY with every row's frame
    resolved — the one partition the kernels run over, so ``spec`` may
    not have a PARTITION BY."""
    if spec.partition_by:
        raise ValueError("contender kernels run over one partition: "
                         "the spec may not have a PARTITION BY")
    data = {name: _column_data(table, name) for name in table.schema.names()}
    sort = sort_group(table, spec)
    return _build_view(data, sort.order, spec, None, sort.peer_ids)


def _engine(call: WindowCall, part: PartitionView) -> List[Any]:
    return to_list(evaluate_call(call, part))


def _argument(call: WindowCall, part: PartitionView) -> Any:
    """The argument values of a competitor's call, after checking the
    call is in the competitors' published form."""
    if part.has_exclusion or call.filter_where is not None:
        raise ValueError("competitor kernels implement neither EXCLUDE "
                         "nor FILTER")
    if not call.args:
        return None
    values, validity = part.column(call.args[0])
    if not validity.all():
        raise ValueError("competitor kernels take no NULL argument")
    return values


def _rank_ostree(call: WindowCall, part: PartitionView) -> List[int]:
    _argument(call, part)  # refuses EXCLUDE and FILTER
    keys = dense_rank_keys(
        part.sort_columns(call.order_by or part.window_order), part.n)
    return windowed_rank_ostree(keys, part.start, part.end)


#: ``(function, contender) -> run(call, part)``; a DISTINCT aggregate's
#: function is spelled ``"count distinct"``.
CONTENDERS: Dict[Tuple[str, str],
                 Callable[[WindowCall, PartitionView], List[Any]]] = {
    ("percentile_disc", "mst"): _engine,
    ("percentile_disc", "incremental"):
        lambda call, part: incremental_percentile_disc(
            _argument(call, part), part.start, part.end, call.fraction),
    ("percentile_disc", "ostree"):
        lambda call, part: windowed_percentile_ostree(
            _argument(call, part), part.start, part.end, call.fraction),
    ("percentile_disc", "segtree"):
        lambda call, part: windowed_percentile_segtree(
            _argument(call, part), part.start, part.end, call.fraction),
    ("percentile_disc", "naive"): _engine,
    ("rank", "mst"): _engine,
    ("rank", "ostree"): _rank_ostree,
    ("rank", "naive"): _engine,
    ("lead", "mst"): _engine,
    ("lead", "naive"): _engine,
    ("count distinct", "mst"): _engine,
    ("count distinct", "incremental"):
        lambda call, part: incremental_distinct_count(
            _argument(call, part), part.start, part.end),
    ("count distinct", "naive"): _engine,
    ("mode", "mst"): _engine,
    ("mode", "incremental"):
        lambda call, part: windowed_mode(
            python_values(_argument(call, part)), part.start, part.end),
    ("mode", "naive"): _engine,
}


def kernel(call: WindowCall, contender: str) -> Kernel:
    """``kernel(part)``: ``call`` answered by ``contender`` over one
    :func:`partition`."""
    function = f"{call.function} distinct" if call.distinct \
        else call.function
    try:
        run = CONTENDERS[(function, contender)]
    except KeyError:
        known = [name for f, name in CONTENDERS if f == function]
        raise ValueError(f"no contender {contender!r} for {function}; "
                         f"known: {known}") from None
    if contender in ALGORITHMS:
        call = replace(call, algorithm=contender)
    return lambda part: run(call, part)
