"""GROUP BY aggregate computation for the SQL executor.

:func:`grouped_aggregate` computes one aggregate for every group at
once from the rows' group numbers: ``count``/``sum``/``avg`` scatter
into one slot per group, ``min``/``max`` reduce the segments of one
stable sort of the group numbers, and the holistic aggregates
(``mode``, ``median``, ``percentile_*``) run a small kernel per
segment of that same sort.

Float ``sum``/``avg`` add each group's values in input order, one IEEE
addition per row (``np.add.at`` is unbuffered and sequential) — the
fold :mod:`repro.tpch.reference` spells out as a ``for`` loop. A
pairwise or re-associated reduction (``np.sum``, ``np.add.reduceat``,
cumulative-sum differences) would change the last bits.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, List, Optional

import numpy as np

from repro.errors import SqlAnalysisError
from repro.sql.keys import first_occurrence, key_codes
from repro.sql.vector import Vector, null_values
from repro.table.column import DataType

AGGREGATE_NAMES = frozenset({
    "count", "sum", "avg", "min", "max", "mode",
    "percentile_disc", "percentile_cont", "median",
})

_ORDERED_SET = ("mode", "percentile_disc", "percentile_cont", "median")


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_NAMES


def grouped_aggregate(name: str, groups: np.ndarray, n_groups: int, *,
                      star: bool, distinct: bool, arg: Optional[Vector],
                      selected: Optional[np.ndarray] = None,
                      order_values: Optional[Vector] = None,
                      order_descending: bool = False,
                      fraction: Optional[float] = None) -> Vector:
    """One aggregate over every group: ``groups[row]`` is the row's
    group number in ``0..n_groups-1``, ``selected`` the FILTER mask.

    Group ``g``'s result is at position ``g``; a group with no
    contributing row is NULL (``count`` is 0). A result column with no
    non-NULL entry at all is typed FLOAT64, like a NULL literal."""
    name = name.lower()
    if name == "count" and star:
        rows = groups if selected is None else groups[selected]
        return _result(np.bincount(rows, minlength=n_groups),
                       np.ones(n_groups, dtype=np.bool_), DataType.INT64)
    source = arg
    if name in _ORDERED_SET and order_values is not None:
        source = order_values
    if source is None:
        raise SqlAnalysisError(
            f"{name} requires WITHIN GROUP (ORDER BY)"
            if name in _ORDERED_SET else "aggregate requires an argument")
    rows = np.flatnonzero(source.validity if selected is None
                          else source.validity & selected)
    if distinct and name in ("count", "sum", "avg"):
        group_column = Vector(groups[rows], np.ones(len(rows), dtype=np.bool_),
                              DataType.INT64)
        pairs = key_codes([group_column, source.take(rows)])
        rows = rows[first_occurrence(pairs)[1]]
    groups = groups[rows]
    values = source.values[rows]
    counts = np.bincount(groups, minlength=n_groups)
    if name == "count":
        return _result(counts, np.ones(n_groups, dtype=np.bool_),
                       DataType.INT64)
    present = counts > 0
    if name in ("sum", "avg"):
        if values.dtype.kind not in "biuf":
            raise SqlAnalysisError(
                f"{name} expects a numeric argument, got "
                f"{source.dtype.value}")
        integral = values.dtype.kind != "f"
        sums = np.zeros(n_groups, dtype=np.int64 if integral else np.float64)
        np.add.at(sums, groups, values)
        if name == "sum":
            return _result(sums, present, DataType.INT64 if integral
                           else DataType.FLOAT64)
        return _result(sums / np.maximum(counts, 1), present,
                       DataType.FLOAT64)
    # One stable sort of the group numbers: group g's values, in input
    # order, are sorted[starts[g]:starts[g] + counts[g]].
    values = values[np.argsort(groups, kind="stable")]
    starts = np.cumsum(counts) - counts
    if name in ("min", "max"):
        reduce = np.minimum if name == "min" else np.maximum
        out = null_values(source.dtype, n_groups)
        out[present] = reduce.reduceat(values, starts[present])
        return _result(out, present, source.dtype)
    dtype = source.dtype if name in ("mode", "percentile_disc") \
        else DataType.FLOAT64
    out = null_values(dtype, n_groups)
    out[present] = [
        _ordered_set(name, values[start:start + count].tolist(),
                     order_descending, fraction)
        for start, count in zip(starts[present].tolist(),
                                counts[present].tolist())]
    return _result(out, present, dtype)


def _result(values: np.ndarray, validity: np.ndarray,
            dtype: DataType) -> Vector:
    if not validity.any():
        dtype = DataType.FLOAT64
        values = null_values(dtype, len(validity))
    return Vector(values, validity, dtype)


def _ordered_set(name: str, values: List[Any], descending: bool,
                 fraction: Optional[float]) -> Any:
    """A holistic aggregate over one group's non-NULL values (storage
    representation, input order, at least one)."""
    if name == "mode":
        # max() keeps the first maximum and Counter keeps first-seen
        # order: ties go to the value that appeared first.
        counts = Counter(values)
        return max(counts, key=counts.__getitem__)
    values.sort(reverse=descending)
    if name == "median":
        return _percentile_cont(values, 0.5)
    if fraction is None:
        raise SqlAnalysisError(f"{name} requires a fraction argument")
    if name == "percentile_disc":
        return values[max(math.ceil(fraction * len(values)) - 1, 0)]
    return _percentile_cont(values, fraction)


def _percentile_cont(values: List[Any], fraction: float) -> float:
    position = fraction * (len(values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    weight = position - lower
    return float(values[lower]) * (1 - weight) + float(values[upper]) * weight
