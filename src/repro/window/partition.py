"""The evaluation context of one window group: every partition at once."""

from __future__ import annotations

from typing import (Any, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.errors import WindowFunctionError
from repro.sortutil import (SortColumn, equal_runs, normalized_key,
                            sort_with_runs)
from repro.window.bounds import PeerGroups
from repro.window.frame import FrameExclusion, OrderItem

ColumnData = Tuple[Any, np.ndarray]  # (values, validity) in group order
RangePair = Tuple[np.ndarray, np.ndarray]


def view_columns(spec: Any, calls: Sequence[Any]) -> Set[str]:
    """The columns a group's view gathers: the window ORDER BY keys
    (peer groups, RANGE keys) and every column a call reads — arguments,
    FILTER and function ORDER BY. PARTITION BY columns are not needed:
    the view carries partition ids instead."""
    needed = {item.column for item in spec.order_by}
    for call in calls:
        needed.update(a for a in call.args if isinstance(a, str))
        if call.filter_where:
            needed.add(call.filter_where)
        needed.update(item.column for item in call.order_by)
    return needed


class GroupOrder(NamedTuple):
    """A window group's sort, the cache entry every structure of the
    group is built over — per group position: the input row
    (``order``), its partition (``partition_ids``, None = one
    partition) and its peer group (``peer_ids``: equal PARTITION BY and
    ORDER BY keys). int32 while the group has fewer than 2**31 rows."""

    order: np.ndarray
    partition_ids: Optional[np.ndarray]
    peer_ids: np.ndarray


def sort_group(table: Any, spec: Any) -> GroupOrder:
    """Sort ``table`` by the spec's (PARTITION BY, ORDER BY): one
    normalised-key argsort, peer groups from runs of equal keys. The
    PARTITION BY columns' key is computed once: it leads the sort key
    as one code column, and its runs are the partitions."""
    n = table.num_rows

    def sort_column(name: str, *placement: bool) -> SortColumn:
        column = table.column(name)
        return SortColumn(column.array(), *placement, column.validity)

    sort_columns = [sort_column(item.column, item.descending,
                                item.resolved_nulls_last())
                    for item in spec.order_by]
    partition_key = None
    if spec.partition_by:
        partition_key = normalized_key(
            [sort_column(name, False, True) for name in spec.partition_by],
            n)
        sort_columns.insert(0, SortColumn(partition_key))
    order, peer_ids = sort_with_runs(sort_columns, n)
    index = np.int32 if n < 2 ** 31 else np.int64
    partition_ids = None if partition_key is None \
        else equal_runs(partition_key[order]).astype(index)
    return GroupOrder(order.astype(index), partition_ids,
                      peer_ids.astype(index))


class PartitionView:
    """One window group sorted by (PARTITION BY, ORDER BY), with the
    frames of the rows it answers fully resolved. No frame crosses a
    partition boundary, so index structures span the whole group and
    answer every partition's frames.

    * ``n`` — the group's size: columns hold ``n`` values and index
      structures range over them;
    * ``partition_ids`` — per position, its partition (ascending runs);
    * ``rows`` — the group positions of the rows the view answers,
      ascending (every position unless the consumer demanded fewer);
    * ``start`` / ``end`` — per answered row, the frame before
      exclusion;
    * ``pieces`` — per answered row, the frame after the EXCLUDE clause,
      as 1–3 continuous ranges in position order; the excluded rows are
      the gaps between consecutive pieces.
    """

    def __init__(self, columns: Dict[str, ColumnData], n: int,
                 start: np.ndarray, end: np.ndarray, pieces: List[RangePair],
                 peers: PeerGroups, exclusion: FrameExclusion,
                 window_order: Sequence[OrderItem] = (),
                 structures: Any = None,
                 rows: Optional[np.ndarray] = None,
                 partition_ids: Optional[np.ndarray] = None) -> None:
        self.columns = columns
        self.n = n
        self.partition_ids = np.zeros(n, dtype=np.int64) \
            if partition_ids is None else partition_ids
        self.rows = np.arange(n, dtype=np.int64) if rows is None else rows
        self.start = start
        self.end = end
        self.pieces = pieces
        self.peers = peers
        self.exclusion = exclusion
        self.window_order = tuple(window_order)
        #: Optional repro.cache.StructureAcquirer; evaluators route index
        #: builds through it (None = always build inline).
        self.structures = structures

    @property
    def has_exclusion(self) -> bool:
        return self.exclusion is not FrameExclusion.NO_OTHERS

    def column(self, name: str) -> ColumnData:
        try:
            return self.columns[name]
        except KeyError:
            raise WindowFunctionError(
                f"window function references unknown column {name!r}") from None

    def sort_columns(self, items: Sequence[OrderItem]) -> List[SortColumn]:
        """Build sort columns (whole group) from ORDER BY items."""
        out = []
        for item in items:
            values, validity = self.column(item.column)
            out.append(SortColumn(values, descending=item.descending,
                                  nulls_last=item.resolved_nulls_last(),
                                  validity=validity))
        return out
