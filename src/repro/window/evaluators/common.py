"""Shared evaluator plumbing: result arrays, keep masks, remapping,
function order."""

from __future__ import annotations

from typing import (Any, Callable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.cache.store import annotate_layout
from repro.mst.build import TreeLevels
from repro.mst.vectorized import batched_select
from repro.preprocess.permutation import permutation_array
from repro.preprocess.remap import IndexRemap
from repro.resilience.context import current_context
from repro.resilience.guard import guarded_builder
from repro.sortutil import SortColumn
from repro.table.column import DataType
from repro.window.calls import WindowCall, result_type
from repro.window.partition import PartitionView

RangePair = Tuple[np.ndarray, np.ndarray]

#: One call's result over one group: one value per answered row
#: (``len(part.rows)``) of the call's static dtype plus a validity mask
#: (None = no row is NULL; slots under a False hold an arbitrary
#: placeholder).
Arrays = Tuple[np.ndarray, Optional[np.ndarray]]

#: What a family's ``evaluate`` returns: :data:`Arrays` from the ``mst``
#: path, or a ``naive`` path's row-at-a-time list (None = NULL), which
#: ``_dispatch`` converts with :func:`to_arrays`.
Result = Union[Arrays, List[Any]]

#: Most (row, entry) candidates :meth:`CallInput.hole_only` gathers at
#: once, so its memory stays bounded whatever the hole width.
HOLE_PAIRS_PER_BLOCK = 1 << 18

_PHYSICAL_TYPES = {"i": DataType.INT64, "u": DataType.INT64,
                   "f": DataType.FLOAT64, "b": DataType.BOOL}


def result_dtype(call: WindowCall, part: PartitionView) -> np.dtype:
    """The numpy dtype of ``call``'s result — :func:`result_type` of
    the argument's physical type (DATE columns are day ordinals here),
    ``object`` for strings and UDAF states. Fixed by the call and its
    argument column alone, never by the values."""
    arg_type = None
    if call.args:
        values, _ = part.column(call.args[0])
        kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
        arg_type = _PHYSICAL_TYPES.get(kind, DataType.STRING)
    dtype = result_type(call, arg_type)
    return np.dtype(getattr(dtype, "numpy_dtype", None) or object)


def nullable(values: np.ndarray, valid: np.ndarray) -> Arrays:
    """``values`` with the mask dropped when every row is valid."""
    return values, (None if valid.all() else valid)


def to_arrays(values: Sequence[Any], dtype: np.dtype) -> Arrays:
    """A ``naive`` path's row-at-a-time result list (None = SQL NULL)
    as typed arrays — the one list -> arrays conversion."""
    valid = np.fromiter((v is not None for v in values), np.bool_,
                        len(values))
    if dtype == object:
        # Element stores: a UDAF result may itself be a sequence.
        out = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            out[i] = value
    else:
        out = np.zeros(len(values), dtype=dtype)
        out[valid] = [v for v in values if v is not None]
    return nullable(out, valid)


def to_list(result: Arrays) -> List[Any]:
    """The arrays boxed back to Python values (None = SQL NULL)."""
    values, validity = result
    boxed = values.tolist()
    if validity is None:
        return boxed
    return [v if ok else None for v, ok in zip(boxed, validity.tolist())]


def python_values(values: Any) -> List[Any]:
    """A column's values as plain Python objects (numpy scalars
    unboxed), for hashing and user-defined aggregate callbacks."""
    return values.tolist() if isinstance(values, np.ndarray) \
        else list(values)


def keep_mask(call: WindowCall, part: PartitionView,
              skip_null_arg: bool) -> np.ndarray:
    """Rows that participate in the function's input: FILTER clause,
    plus NULL skipping where the function family demands it."""
    keep = np.ones(part.n, dtype=np.bool_)
    if call.filter_where is not None:
        values, validity = part.column(call.filter_where)
        mask = np.asarray(values, dtype=np.bool_) & validity
        keep &= mask
    if skip_null_arg and call.args:
        _, validity = part.column(call.args[0])
        keep &= validity
    return keep


class CallInput:
    """Per-call preprocessing: the kept-row universe and remapped frames.

    Rows excluded by FILTER / IGNORE NULLS never enter the tree; frame
    bounds move to the filtered coordinate space via an
    :class:`IndexRemap` (Sections 4.5 / 4.7). The keep mask and the
    remap span the group; the frames are the answered rows'.
    """

    def __init__(self, call: WindowCall, part: PartitionView,
                 skip_null_arg: bool) -> None:
        self.call = call
        self.part = part
        self.skip_null_arg = skip_null_arg
        self.keep = keep_mask(call, part, skip_null_arg)
        self.remap = IndexRemap(self.keep)
        self.kept_rows = np.flatnonzero(self.keep)
        self.start_f = self.remap.bounds_array_to_filtered(part.start)
        self.end_f = self.remap.bounds_array_to_filtered(part.end)
        # Without EXCLUDE the one piece is the frame (start, end).
        self.pieces_f: List[RangePair] = [(self.start_f, self.end_f)] \
            if len(part.pieces) == 1 else [
                (self.remap.bounds_array_to_filtered(lo),
                 self.remap.bounds_array_to_filtered(hi))
                for lo, hi in part.pieces]

    @property
    def answered(self) -> int:
        """How many rows the call answers (one frame each)."""
        return len(self.part.rows)

    @property
    def n_kept(self) -> int:
        return self.remap.n_filtered

    @property
    def single_piece(self) -> bool:
        return len(self.pieces_f) == 1

    def kept_values(self, column: str) -> Any:
        """The column's values at kept rows (numpy array or list)."""
        values, _ = self.part.column(column)
        if isinstance(values, np.ndarray):
            return values[self.kept_rows]
        return [values[i] for i in self.kept_rows]

    def argument(self) -> Tuple[np.ndarray, np.ndarray]:
        """The first argument's ``(values, validity)`` over the full
        group, values as an ndarray (``object`` for strings)."""
        values, validity = self.part.column(self.call.args[0])
        if not isinstance(values, np.ndarray):
            values = np.asarray(values, dtype=object)
        return values, validity

    def select(self, levels: TreeLevels, k: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
        """For each of ``rows``: the group row that is the ``k``-th
        kept row of its frame in the slab order of ``levels`` (a
        permutation tree). One batched select over the frame's pieces,
        whatever their number; callers pass only rows with ``k`` in
        range."""
        key_lo = np.stack([lo[rows] for lo, _ in self.pieces_f])
        key_hi = np.stack([hi[rows] for _, hi in self.pieces_f])
        # Slab order is function order; the selected entry's key is its
        # filtered frame position.
        _, positions = batched_select(levels, k, key_lo, key_hi)
        return self.kept_rows[positions]

    def in_frame_order(self) -> bool:
        """Whether the function order is the window ORDER BY the group
        is sorted by (or there is none): a stable sort then keeps every
        row in place, so the kept permutation is the identity."""
        def spelled(items):
            return [(item.column, item.descending,
                     item.resolved_nulls_last()) for item in items]
        order_by = self.call.order_by
        return not order_by or \
            spelled(order_by) == spelled(self.part.window_order)

    def frame_select(self, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """:meth:`select` when :meth:`in_frame_order` holds, with no
        tree: the pieces are ascending and disjoint, so the ``k``-th
        kept row of a frame lies ``k`` minus the sizes before it into
        one."""
        at = np.zeros(len(rows), dtype=np.int64)
        before = np.zeros(len(rows), dtype=np.int64)
        for lo, hi in self.pieces_f:
            lo, hi = lo[rows], hi[rows]
            size = np.maximum(hi - lo, 0)
            inside = (k >= before) & (k < before + size)
            at = np.where(inside, lo + k - before, at)
            before += size
        return self.kept_rows[at]

    def hole_only(self, prev: np.ndarray,
                  admit: Optional[Callable[[np.ndarray, np.ndarray],
                                           np.ndarray]] = None
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The Section 4.7 EXCLUDE correction pairs, in blocks of
        ``(rows, entries)``.

        ``prev`` is the previous-occurrence array of the kept entries;
        entries chained by it form a class. ``(row, j)`` is a pair when
        kept entry ``j`` lies in a gap between two of the row's pieces,
        is its class's first occurrence in the continuous frame and the
        class occurs in no piece starting after ``j``: one per class a
        continuous-frame probe counts that the excluded frame lacks.
        ``admit(rows, entries)`` narrows the candidates before the
        piece test. ``rows`` index the answered rows (``part.rows``).
        Pairs come row by row, entries ascending; a block
        holds whole rows and at most :data:`HOLE_PAIRS_PER_BLOCK`
        candidates unless one row alone has more.
        """
        pieces = self.pieces_f
        if len(pieces) == 1:
            return
        gap_lo = np.stack([hi for _, hi in pieces[:-1]], axis=1)
        widths = np.maximum(
            np.stack([lo for lo, _ in pieces[1:]], axis=1) - gap_lo, 0)
        per_row = widths.sum(axis=1)
        if not per_row.any():
            return
        row_total = np.cumsum(per_row)
        m = self.n_kept
        prev = np.asarray(prev, dtype=np.int64)
        # Pointer jumping: every entry to its class's first occurrence.
        cls = np.where(prev < 0, np.arange(m), prev)
        while True:
            root = cls[cls]
            if np.array_equal(root, cls):
                break
            cls = root
        # Sorted (class, position) codes; the sentinel ends every search.
        occurrences = np.append(np.sort(cls * (m + 1) + np.arange(m)),
                                np.iinfo(np.int64).max)
        ctx = current_context()
        r0 = 0
        while r0 < self.answered:
            done = row_total[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(
                row_total, done + HOLE_PAIRS_PER_BLOCK, side="right")))
            total = int(row_total[r1 - 1] - done)
            if total:
                ctx.checkpoint()
                width = widths[r0:r1].ravel()
                rows = np.repeat(np.arange(r0, r1), per_row[r0:r1])
                entries = np.arange(total) + np.repeat(
                    gap_lo[r0:r1].ravel() - (np.cumsum(width) - width), width)
                first = prev[entries] < self.start_f[rows]
                if admit is not None:
                    first &= admit(rows, entries)
                rows, entries = rows[first], entries[first]
                code = cls[entries] * (m + 1)
                in_piece = np.zeros(len(entries), dtype=np.bool_)
                for lo, hi in pieces[1:]:
                    a, b = lo[rows], hi[rows]
                    later = np.flatnonzero((entries < a) & (a < b))
                    at = np.searchsorted(occurrences, code[later] + a[later])
                    in_piece[later] |= \
                        occurrences[at] < code[later] + b[later]
                yield rows[~in_piece], entries[~in_piece]
            r0 = r1

    # ------------------------------------------------------------------
    # function-level ordering
    # ------------------------------------------------------------------
    def function_sort_columns(self,
                              default_arg: bool = False) -> List[SortColumn]:
        """The function-level ORDER BY as sort columns over the full
        group. Falls back to the window ORDER BY, then (optionally)
        the first argument, then group position."""
        if self.call.order_by:
            return self.part.sort_columns(self.call.order_by)
        if default_arg and self.call.args:
            values, validity = self.part.column(self.call.args[0])
            return [SortColumn(values, validity=validity)]
        if self.part.window_order:
            return self.part.sort_columns(self.part.window_order)
        return []

    def kept_sort_columns(self, columns: Sequence[SortColumn]) -> List[SortColumn]:
        """Restrict whole-group sort columns to kept rows."""
        out = []
        for col in columns:
            if isinstance(col.values, np.ndarray):
                values = col.values[self.kept_rows]
            else:
                values = [col.values[i] for i in self.kept_rows]
            validity = None if col.validity is None \
                else np.asarray(col.validity, dtype=np.bool_)[self.kept_rows]
            out.append(SortColumn(values, col.descending, col.nulls_last,
                                  validity))
        return out

    def kept_permutation(self, columns: Sequence[SortColumn]) -> np.ndarray:
        """Section 4.5 permutation array over the kept rows: entry j is
        the *filtered* frame position of the j-th kept row in function
        order (empty order = frame order, i.e. the identity)."""
        kept_cols = self.kept_sort_columns(columns)
        return permutation_array(kept_cols, self.n_kept)

    # ------------------------------------------------------------------
    # structure cache
    # ------------------------------------------------------------------
    def function_order_signature(self, default_arg: bool = False) -> Tuple:
        """Hashable signature of the order :meth:`function_sort_columns`
        resolves to — part of a structure's cache key. It needs no
        column detail: :meth:`structure` keys the call's argument and
        function ORDER BY columns, the window-group key prefix the
        window ORDER BY."""
        if self.call.order_by:
            return ("call", tuple((item.descending,
                                   item.resolved_nulls_last())
                                  for item in self.call.order_by))
        if default_arg and self.call.args:
            return ("arg",)
        if self.part.window_order:
            return ("window",)
        return ("none",)

    def structure(self, kind: str, builder, extra: Tuple = ()) -> Any:
        """Acquire an index structure through the group's cache
        acquirer, keyed by the structure ``kind``, this call's inputs
        by role (argument, FILTER and function ORDER BY column
        fingerprints, NULL skipping) and any ``extra`` discriminators;
        with no cache, just build.

        Builds run guarded (see :mod:`repro.resilience.guard`): the
        active deadline is checked, the ``structure.build`` fault site
        fires, failures surface as typed
        :class:`~repro.errors.StructureBuildError` and oversized results
        as :class:`~repro.errors.ResourceLimitError` — both of which the
        dispatcher answers by degrading to the baseline evaluator."""
        guarded = guarded_builder(kind, builder)
        acquirer = self.part.structures
        if acquirer is None:
            tracer = current_context().tracer
            if tracer.enabled:
                # Cacheless build: still worth a timed span (keyless —
                # there is no cache key without an acquirer).
                with tracer.span("structure.build", kind=kind) as span:
                    structure = guarded()
                    annotate_layout(span, kind, structure)
                    return structure
            return guarded()
        filter_where = self.call.filter_where
        column_key = acquirer.column_key
        config = ((tuple(map(column_key, self.call.args)),
                   filter_where and column_key(filter_where),
                   tuple(column_key(item.column)
                         for item in self.call.order_by),
                   self.skip_null_arg) + tuple(extra))
        return acquirer.acquire(kind, config, guarded)


def annotate_probe(inputs: "CallInput", **extra: Any) -> None:
    """Attach a family's per-call input shape to the open ``probe``
    span (no-op — one attribute test — when tracing is off)."""
    tracer = current_context().tracer
    if tracer.enabled:
        tracer.annotate(kept=int(inputs.n_kept), **extra)
