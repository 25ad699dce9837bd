"""Framed MODE — the most frequent value in each window frame.

Modes are the one common holistic aggregate that does not reduce to a
2-d range count, so the merge sort tree does not apply (the paper's
related work points to dedicated range-mode structures [13, 25]). The
``mst`` path here is the sqrt-decomposition
:class:`~repro.rangemode.RangeModeIndex`; ``naive`` recomputes per
frame.

Tie rule (shared by both): the value whose first occurrence in the
partition's kept rows comes earliest. Both key the values by (partition
id, value): every frame's candidates share one partition, so the first
appearance of a key over the whole group is its value's first
appearance in that partition.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.rangemode import RangeModeIndex
from repro.window.calls import WindowCall
from repro.window.evaluators.common import (CallInput, Result,
                                             annotate_probe, python_values,
                                             result_dtype, to_arrays)
from repro.window.partition import PartitionView
from repro.resilience.context import current_context


def evaluate(call: WindowCall, part: PartitionView) -> Result:
    inputs = CallInput(call, part, skip_null_arg=True)
    annotate_probe(inputs)
    if call.algorithm == "naive" or not inputs.single_piece:
        # Frame holes invalidate the central-span candidate argument.
        return _evaluate_naive(call, part, inputs)
    keys = _partition_keys(part, inputs)
    index = inputs.structure("rangemode", lambda: RangeModeIndex(keys))
    lo, hi = inputs.pieces_f[0]
    out: List[Any] = []
    ctx = current_context()
    for i in range(len(part.rows)):
        ctx.tick(i)
        mode, _count = index.query(int(lo[i]), int(hi[i]))
        out.append(None if mode is None else mode[1])
    # The range-mode index answers one frame at a time.
    return to_arrays(out, result_dtype(call, part))


def _partition_keys(part: PartitionView, inputs: CallInput) -> List[Any]:
    """The kept argument values as (partition id, value) pairs."""
    values = python_values(inputs.kept_values(inputs.call.args[0]))
    ids = part.partition_ids[inputs.kept_rows].tolist()
    return list(zip(ids, values))


def _evaluate_naive(call: WindowCall, part: PartitionView,
                    inputs: CallInput) -> List[Any]:
    keys = _partition_keys(part, inputs)
    first_seen: Dict[Any, int] = {}
    for position, key in enumerate(keys):
        if key not in first_seen:
            first_seen[key] = position
    out: List[Any] = []
    ctx = current_context()
    for i in range(len(part.rows)):
        ctx.tick(i)
        counts: Dict[Any, int] = {}
        for lo, hi in inputs.pieces_f:
            for j in range(int(lo[i]), int(hi[i])):
                counts[keys[j]] = counts.get(keys[j], 0) + 1
        if not counts:
            out.append(None)
            continue
        best = max(counts.items(),
                   key=lambda kv: (kv[1], -first_seen[kv[0]]))
        out.append(best[0][1])
    return out
