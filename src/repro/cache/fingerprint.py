"""Content fingerprints and canonical cache keys.

A cached structure is only reusable if the *data* it was built from is
byte-identical. Columns are fingerprinted over their physical storage
(values plus validity mask); a window key combines the fingerprints of
exactly the columns its entry reads, so appending an unrelated column
does not invalidate cached trees.

Fingerprints are memoised on the column object keyed by its length
(columns are append-only, so a length match means the prefix bytes are
unchanged — and an append changes the length). A false negative merely
rebuilds; key composition is chosen so false positives cannot happen
short of a hash collision (128-bit BLAKE2b).

The canonical window cache key deliberately excludes the frame clause:
the index structures depend on the group's rows, the ordering and
the per-call inputs, but *not* on the frame bounds — two queries
differing only in ``ROWS BETWEEN ... AND ...`` share every structure.
Keys name columns by content fingerprint and role, never by column
name, so a structure is shared by every statement that reads the same
data in the same order.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

import numpy as np

_DIGEST_SIZE = 16
_FP_ATTR = "_repro_fingerprint"


def column_fingerprint(column) -> str:
    """A stable content fingerprint of one :class:`~repro.table.Column`.

    Covers dtype, physical values (including NULL placeholders) and the
    validity mask. Memoised on the column, keyed by its length.
    """
    memo = getattr(column, _FP_ATTR, None)
    if memo is not None and memo[0] == len(column):
        return memo[1]
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(column.dtype.value.encode())
    raw = column.raw()
    if isinstance(raw, np.ndarray):
        digest.update(np.ascontiguousarray(raw).tobytes())
    else:
        for value in raw:
            digest.update(repr(value).encode())
            digest.update(b"\x1f")
    digest.update(np.ascontiguousarray(column.validity).tobytes())
    result = digest.hexdigest()
    try:
        setattr(column, _FP_ATTR, (len(column), result))
    except AttributeError:  # pragma: no cover - slotted columns
        pass
    return result


def table_fingerprint(table, columns: Iterable[str] = None) -> str:
    """Fingerprint of a table restricted to ``columns`` (default: all).

    Column names participate in the hash so that swapping two identical
    columns still changes the fingerprint.
    """
    names = sorted(set(columns)) if columns is not None \
        else list(table.schema.names())
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(str(table.num_rows).encode())
    for name in names:
        digest.update(name.encode())
        digest.update(b"\x1e")
        digest.update(column_fingerprint(table.column(name)).encode())
    return digest.hexdigest()


def window_group_key(table, spec) -> Tuple:
    """The key prefix of one window group's cache entries — its sort
    and every structure built over it: ``("window", rows, PARTITION BY
    fingerprints, ORDER BY (fingerprint, DESC, NULLS LAST))``.

    Columns enter by content, never by name: the same data under
    another (hidden) column name, or beside other calls' columns, maps
    to the same key. The entry kind and each structure's own inputs
    (argument, FILTER and function ORDER BY fingerprints) are appended
    by the :class:`~repro.cache.store.StructureAcquirer`.
    """
    def fingerprint(name: str) -> str:
        return column_fingerprint(table.column(name))

    return ("window", table.num_rows,
            tuple(fingerprint(name) for name in spec.partition_by),
            tuple((fingerprint(item.column), item.descending,
                   item.resolved_nulls_last()) for item in spec.order_by))
