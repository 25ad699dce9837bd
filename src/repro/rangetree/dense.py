"""The indexes that count distinct classes in a frame: behind framed
DENSE_RANK a presence table or a range tree, behind DISTINCT sums over
few integer classes a presence table with class sums."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.mst.build import (KeyCounts, TreeLevels, _bridged_merges,
                             choose_index_dtype)
from repro.mst.decompose import num_levels
from repro.mst.vectorized import _blocks, _covering_walk, _path_prefix
from repro.preprocess.occurrences import previous_occurrence

#: Bridge sampling of every tree of the index. Its ``2H + H(H + 1)/2``
#: bridges stay at ``k = 256`` (about 1 byte per entry and column): at
#: ``k = 1`` they would take four.
SAMPLE_EVERY = 256

#: Rank key classes one presence word holds: the width of ``uint64``.
WORD_BITS = 64

#: ``_BELOW[K]``: the bits of the classes below ``K``, for ``K`` in ``[0,
#: WORD_BITS]``. A shift by ``WORD_BITS`` is undefined in numpy.
_BELOW = np.array([(1 << k) - 1 for k in range(WORD_BITS + 1)],
                  dtype=np.uint64)

#: A :class:`DistinctTable` sums classes whose absolute values sum to at
#: most this: float64's largest run of exact integers ends here.
EXACT_SUM = 1 << 53

#: ``_BYTE_BITS[k, v]``: bit ``k`` of the byte ``v``.
_BYTE_BITS = (np.arange(256, dtype=np.int64)
              >> np.arange(8, dtype=np.int64)[:, None]) & 1


def _bridges(values: np.ndarray, fanout: int, height: int) -> TreeLevels:
    """The bridges of the first ``height`` levels of a merge sort tree
    over ``values``, without its keys."""
    tree = TreeLevels(fanout=fanout, sample_every=SAMPLE_EVERY,
                      anchors=[None], bridges=[None])
    for _, _, anchors, offsets in _bridged_merges(
            values, fanout, height, SAMPLE_EVERY):
        tree.anchors.append(anchors)
        tree.bridges.append(offsets)
    return tree


def presence_dtype(classes: int) -> np.dtype:
    """The smallest unsigned dtype with a bit per class of
    ``[0, classes)``."""
    return np.min_scalar_type((1 << classes) - 1)


def presence_words(n: int) -> int:
    """Words of a presence table over ``n`` rows: level ``t`` of
    ``floor(log2 n) + 1`` levels holds ``n + 1 - 2^t``."""
    levels = n.bit_length()
    return levels * (n + 1) - ((1 << levels) - 1)


class DenseRankIndex:
    """Counts distinct rank-key classes below a threshold in a frame.

    ``keys[i]`` is row i's dense rank key (Figure 8 preprocessing). The
    dense rank of row i over frame ``[a, b)`` is::

        1 + #{j in [a, b) : keys[j] < keys[i] and prev[j] < a}

    (``prev[j] < a``: j is its key class's first occurrence in the
    frame). ``DenseRankIndex(keys)`` picks its layout from the keys:
    a :class:`PresenceTable` when every key lies in ``[0, WORD_BITS)``,
    else a :class:`RangeTree`. Both keep ``prev`` (previous occurrence
    of every key, in input order), which the EXCLUDE correction reads.
    """

    n: int
    prev: np.ndarray

    def __new__(cls, keys: Sequence[int],
                fanout: int = 2) -> "DenseRankIndex":
        if cls is DenseRankIndex:
            keys = np.asarray(keys)
            in_word = not len(keys) or (
                keys.min() >= 0 and keys.max() < WORD_BITS)
            cls = PresenceTable if in_word else RangeTree
        return super().__new__(cls)

    def batched_dense_rank(self, lo: np.ndarray, hi: np.ndarray,
                           keys: np.ndarray) -> np.ndarray:
        """DENSE_RANK of every row at once: row ``i`` has rank key
        ``keys[i]`` and frame ``[lo[i], hi[i])``. An empty or inverted
        frame ranks 1."""
        m = len(lo)
        total = np.ones(m, dtype=np.int64)  # dense rank starts at 1
        if self.n == 0 or m == 0:
            return total
        lo = np.clip(np.asarray(lo, dtype=np.int64), 0, self.n)
        hi = np.clip(np.asarray(hi, dtype=np.int64), 0, self.n)
        keys = np.asarray(keys, dtype=np.int64)
        for block in _blocks(m):
            lo_b, hi_b = lo[block], hi[block]
            live = lo_b < hi_b
            total[block] += self._count_block(
                live, np.where(live, lo_b, 0), np.where(live, hi_b, 1),
                keys[block])
        return total

    def _count_block(self, live: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     key: np.ndarray) -> np.ndarray:
        """#{j in [lo, hi) : keys[j] < key, prev[j] < lo} for one block,
        0 where ``live`` is false (there ``[lo, hi)`` is ``[0, 1)``)."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        raise NotImplementedError


class PresenceWords:
    """The classes present in every power-of-two run of rows, one bit
    per class: a sparse table over a word-wide OR.

    Level ``t`` holds, at ``i``, the OR of ``1 << ids[j]`` over ``j`` in
    ``[i, i + 2^t)``; all levels lie in one flat array ``words``. OR is
    idempotent, so the classes of a frame ``[a, b)`` with ``t =
    floor(log2(b - a))`` are the OR of two overlapping runs, ``[a, a +
    2^t)`` and ``[b - 2^t, b)`` (:meth:`frame_word`): two gathers and an
    OR per row. Built in ``O(n log n)`` ORs of words as wide as the
    classes need (:func:`presence_dtype`).
    """

    def __init__(self, ids: np.ndarray, classes: int) -> None:
        """``ids[j]`` is row j's class, in ``[0, classes)``."""
        self.n = n = len(ids)
        dtype = presence_dtype(classes)
        self.words = np.empty(presence_words(n), dtype=dtype)
        np.left_shift(dtype.type(1), ids.astype(dtype), out=self.words[:n])
        start, width = 0, n  # level 0
        for t in range(1, n.bit_length()):
            below = self.words[start:start + width]
            start, width = start + width, n + 1 - (1 << t)
            np.bitwise_or(below[:width], below[1 << (t - 1):],
                          out=self.words[start:start + width])

    def frame_word(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The classes of every frame ``[lo, hi)`` as one word each; the
        frames must be non-empty and inside ``[0, n]``."""
        t = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exact
        span = np.left_shift(1, t, dtype=np.int64)
        start = t * (self.n + 1) - (span - 1)  # where level t begins
        return self.words[start + lo] | self.words[start + hi - span]


class PresenceTable(PresenceWords, DenseRankIndex):
    """DENSE_RANK over at most ``WORD_BITS`` rank classes: the rank keys
    are the class ids of a :class:`PresenceWords`. A row's classes below
    ``K`` are its frame word's bits below ``K``: a mask and a popcount,
    and no ``prev`` read."""

    def __init__(self, keys: Sequence[int], fanout: int = 2) -> None:
        """``fanout`` is the range tree's; the table has none."""
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        super().__init__(keys, int(keys.max()) + 1 if n else 0)
        self.prev = previous_occurrence(keys).astype(choose_index_dtype(n))

    def _count_block(self, live: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     key: np.ndarray) -> np.ndarray:
        word = self.frame_word(lo, hi)
        below = _BELOW[np.where(live, np.clip(key, 0, WORD_BITS), 0)]
        # Narrowed to the word, a mask past its width wraps to all ones.
        word &= below.astype(word.dtype, copy=False)
        return np.bitwise_count(word)

    def memory_bytes(self) -> int:
        return self.prev.nbytes + self.words.nbytes


class DistinctTable(PresenceWords):
    """DISTINCT SUM (and its count) over at most ``WORD_BITS`` integer
    classes.

    ``ids[j]`` is kept row j's class, an index into ``values``, the
    ascending class values. A frame's class set is the OR of its
    pieces' :meth:`~PresenceWords.frame_word`: the exact union, so an
    EXCLUDE frame needs no hole correction. Its distinct count is that
    word's popcount; its distinct sum adds one entry of ``sums`` per
    byte of the word, where ``sums[b, v]`` is the sum of the classes
    ``8b + k`` for the set bits ``k`` of ``v``.

    Sums are int64 and exact. The caller keeps ``sum(|values|)`` within
    :data:`EXACT_SUM`, where every partial sum in any order is an exact
    float64 too, so the merge sort tree's float sums are these, bit for
    bit.
    """

    def __init__(self, ids: np.ndarray, values: np.ndarray) -> None:
        super().__init__(ids, len(values))
        width = self.words.dtype.itemsize
        padded = np.zeros(8 * width, dtype=np.int64)
        padded[:len(values)] = values
        self.sums = padded.reshape(width, 8) @ _BYTE_BITS

    def count_and_sum(self, pieces: Sequence[Tuple[np.ndarray, np.ndarray]]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Per row: the distinct classes over its frame ``pieces`` (one
        ``(lo, hi)`` array pair per piece, bounds in ``[0, n]``; an
        empty or inverted piece adds nothing) and their sum."""
        m = len(pieces[0][0])
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros(m, dtype=np.int64)
        if self.n == 0 or m == 0:
            return counts, sums
        for block in _blocks(m):
            word = np.zeros(len(counts[block]), dtype=self.words.dtype)
            for lo, hi in pieces:
                lo_b, hi_b = lo[block], hi[block]
                live = lo_b < hi_b
                np.bitwise_or(word, self.frame_word(
                    np.where(live, lo_b, 0), np.where(live, hi_b, 1)),
                    out=word, where=live)
            counts[block] = np.bitwise_count(word)
            sums[block] = self._sum_words(word)
        return counts, sums

    def _sum_words(self, word: np.ndarray) -> np.ndarray:
        """The class sum of every word: one ``sums`` entry per byte."""
        octets = word.astype(word.dtype.newbyteorder("<"), copy=False) \
            .view(np.uint8).reshape(-1, len(self.sums))
        total = self.sums[0][octets[:, 0]]
        for b in range(1, len(self.sums)):
            total += self.sums[b][octets[:, b]]
        return total

    def memory_bytes(self) -> int:
        return self.words.nbytes + self.sums.nbytes


class RangeTree(DenseRankIndex):
    """The Section 4.4 range tree, for rank keys of any span.

    Over frame positions: an *outer* tree over the rank keys and a
    *prev* tree over ``prev``, which keep their top level's key counts
    (``key_counts``, ``prev_counts``) and their bridges; and per outer
    level ``L`` an *inner* tree over ``prev`` in that level's key order,
    ``L + 1`` levels tall, which keeps only its bridges.

    A covering run R holds the same rows in every tree. Walking the
    frame's two boundary paths down the outer and prev trees gives each
    R's ``p`` = #{key < K} and ``q`` = #{prev < a}. The top run of R's
    inner tree is R sorted by ``prev``, so R contributes the first ``q``
    of those entries that lie among its first ``p`` rows in key order:
    one descent inside that run, one bridge gather per level.
    """

    def __init__(self, keys: Sequence[int], fanout: int = 2) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        self.n = len(keys)
        self.fanout = fanout
        height = num_levels(self.n, fanout)
        prev = previous_occurrence(keys)
        #: Previous occurrence of every key, in the input order.
        self.prev = prev.astype(choose_index_dtype(self.n))
        self.key_counts = KeyCounts.of(keys)
        self.prev_counts = KeyCounts.of(prev)
        self.prev_tree = _bridges(prev, fanout, height)
        self.outer = _bridges(keys, fanout, 1)
        self.inner: List[TreeLevels] = [_bridges(prev, fanout, 1)]
        # One merge pass over the rank keys: the outer bridges, and every
        # level's key order of ``prev``, its inner tree's input.
        for level, order, anchors, offsets in _bridged_merges(
                keys, fanout, height, SAMPLE_EVERY):
            self.outer.anchors.append(anchors)
            self.outer.bridges.append(offsets)
            prev = prev[order]
            self.inner.append(_bridges(prev, fanout, level + 1))

    @property
    def height(self) -> int:
        """Levels of the outer tree, the level-0 input included."""
        return len(self.outer.bridges)

    def trees(self) -> List[TreeLevels]:
        """Every bridged tree: outer, prev, then the inner trees."""
        return [self.outer, self.prev_tree] + self.inner

    def _count_block(self, live: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     key: np.ndarray) -> np.ndarray:
        """``p`` and ``q`` walk down the outer and prev trees together."""
        bounds = [self.key_counts.below(key), self.prev_counts.below(lo)]
        count = np.zeros(len(lo), dtype=np.int64)
        for level, runs in _covering_walk([self.outer, self.prev_tree],
                                          self.height - 1, lo, hi, bounds):
            self._count_runs(count, level, live, runs)
        return count

    def _count_runs(self, count: np.ndarray, level: int, live: np.ndarray,
                    runs) -> None:
        """Adds to ``count`` what each level-``level`` run ``(take, start,
        (p, q))`` contributes: of its first ``p`` rows in key order, those
        among the ``q`` whose ``prev`` is below the frame."""
        parts = []
        for take, run_start, (run_p, run_q) in runs:
            at = np.flatnonzero(live & take & (run_p > 0) & (run_q > 0))
            parts.append((at, run_start[at], run_p[at], run_q[at]))
        rows, start, p, q = map(np.concatenate, zip(*parts))
        if not len(rows):
            return
        length = np.minimum(start + self.fanout ** level, self.n) - start
        # A run whose rows all pass one condition contributes the count
        # of the other; only the rest descend their inner tree.
        found = np.minimum(p, q)
        partial = np.flatnonzero((p < length) & (q < length))
        if len(partial):
            start = start[partial]
            found[partial] = _path_prefix(self.inner[level], level, start,
                                          q[partial], start + p[partial])[0]
        np.add.at(count, rows, found)

    def memory_bytes(self) -> int:
        arrays = [self.prev, self.key_counts.table, self.prev_counts.table]
        for tree in self.trees():
            arrays += [a for a in tree.anchors + tree.bridges if a is not None]
        return sum(a.nbytes for a in arrays)
