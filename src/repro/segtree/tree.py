"""Binary segment tree over precomputed per-run aggregates."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

_VECTOR_KINDS = {
    "sum": (np.add, 0.0),
    "count": (np.add, 0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


class SegmentTree:
    """Aggregates of aligned power-of-two runs, queried by run peeling.

    ``kind`` selects a vectorised numpy aggregate (``sum``, ``count``,
    ``min``, ``max``); alternatively pass a generic ``merge`` callable
    plus ``identity`` for arbitrary mergeable states (scalar queries
    only). Build is O(n), one query O(log n).
    """

    def __init__(self, values: Any, kind: Optional[str] = None,
                 merge: Optional[Callable[[Any, Any], Any]] = None,
                 identity: Any = None) -> None:
        if (kind is None) == (merge is None):
            raise ValueError("pass exactly one of kind= or merge=")
        self.kind = kind
        self.merge = merge
        self.n = len(values)
        if kind is not None:
            if kind not in _VECTOR_KINDS:
                raise ValueError(f"unsupported kind {kind!r}")
            op, ident = _VECTOR_KINDS[kind]
            self.identity = ident
            base = np.asarray(values, dtype=np.int64 if kind == "count"
                              else np.float64)
            self.levels: List[Any] = [base]
            while len(self.levels[-1]) > 1:
                prev = self.levels[-1]
                half = len(prev) // 2
                merged = op(prev[:2 * half:2], prev[1:2 * half:2])
                if len(prev) % 2:
                    merged = np.concatenate([merged, prev[-1:]])
                self.levels.append(merged)
        else:
            self.identity = identity
            self.levels = [list(values)]
            while len(self.levels[-1]) > 1:
                prev = self.levels[-1]
                merged = [merge(prev[i], prev[i + 1])
                          for i in range(0, len(prev) - 1, 2)]
                if len(prev) % 2:
                    merged.append(prev[-1])
                self.levels.append(merged)

    # ------------------------------------------------------------------
    def query(self, lo: int, hi: int) -> Any:
        """Aggregate of ``values[lo:hi]`` (identity for empty ranges)."""
        lo = max(0, lo)
        hi = min(self.n, hi)
        state = self.identity
        combine = self.merge if self.merge is not None \
            else _VECTOR_KINDS[self.kind][0]
        level = 0
        while lo < hi:
            if lo & 1:
                state = combine(state, self.levels[level][lo])
                lo += 1
            if hi & 1:
                hi -= 1
                state = combine(state, self.levels[level][hi])
            lo >>= 1
            hi >>= 1
            level += 1
        return state

    def check_invariants(self) -> None:
        """Validate that every level merges its children exactly.

        Recomputes each level from the one below with the tree's own
        combine op (bit-identical for the numpy kinds, ``==`` for
        generic merges) — O(n) total. Raises ``ValueError`` on the
        first inconsistent level; used by the tests as an oracle.
        """
        combine = self.merge if self.merge is not None \
            else _VECTOR_KINDS[self.kind][0]
        if self.levels and len(self.levels[0]) != self.n:
            raise ValueError(
                f"base level has {len(self.levels[0])} entries, "
                f"expected {self.n}")
        for level in range(1, len(self.levels)):
            prev = self.levels[level - 1]
            cur = self.levels[level]
            half = len(prev) // 2
            expected_len = half + (1 if len(prev) % 2 else 0)
            if len(cur) != expected_len:
                raise ValueError(
                    f"level {level} has {len(cur)} entries, expected "
                    f"{expected_len}")
            if self.kind is not None:
                merged = combine(prev[:2 * half:2], prev[1:2 * half:2])
                ok = np.array_equal(merged, cur[:half])
                if ok and len(prev) % 2:
                    ok = bool(prev[-1] == cur[-1])
                    if not ok and np.issubdtype(prev.dtype, np.floating):
                        ok = bool(np.isnan(prev[-1])
                                  and np.isnan(cur[-1]))
            else:
                merged = [combine(prev[i], prev[i + 1])
                          for i in range(0, 2 * half, 2)]
                if len(prev) % 2:
                    merged.append(prev[-1])
                ok = merged == list(cur)
            if not ok:
                raise ValueError(
                    f"level {level} does not merge level {level - 1} "
                    f"with the {self.kind or 'custom'} combine op")

    def batched_query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`query` for the numpy kinds."""
        if self.kind is None:
            raise ValueError("batched queries require a numpy kind")
        op, ident = _VECTOR_KINDS[self.kind]
        lo = np.clip(np.asarray(lo, dtype=np.int64), 0, self.n)
        hi = np.clip(np.asarray(hi, dtype=np.int64), 0, self.n)
        if self.kind in ("sum", "count"):
            total = np.zeros(len(lo), dtype=self.levels[0].dtype)
        else:
            total = np.full(len(lo), ident, dtype=np.float64)
        lo = lo.copy()
        hi = hi.copy()
        for level_values in self.levels:
            active = lo < hi
            if not active.any():
                break
            odd_lo = active & (lo & 1 == 1)
            if odd_lo.any():
                idx = np.flatnonzero(odd_lo)
                total[idx] = op(total[idx], level_values[lo[idx]])
                lo = np.where(odd_lo, lo + 1, lo)
            odd_hi = active & (hi & 1 == 1)
            if odd_hi.any():
                idx = np.flatnonzero(odd_hi)
                hi = np.where(odd_hi, hi - 1, hi)
                total[idx] = op(total[idx], level_values[hi[idx]])
            lo >>= 1
            hi >>= 1
        return total
