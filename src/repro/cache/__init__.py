"""Window-index structure cache: reuse trees across queries.

Every framed window function builds one or more index structures per
window group — merge sort trees (Section 4), segment trees, range trees,
range-mode indexes. Building them is the O(n log n) part of evaluation;
probing them is cheap. The group's sort (permutation, partition ids,
peer-group ids) is cached beside them as one more entry. When the same
data, partitioning and ordering are queried repeatedly (the serving
pattern), rebuilding from scratch wastes exactly the work the
structures exist to amortise — the reuse optimisation Cao et al.
identify as dominant for this operator.

This package provides that reuse as a first-class subsystem:

* :mod:`repro.cache.fingerprint` — stable content fingerprints for table
  columns and canonical cache keys derived from ``(PARTITION BY /
  ORDER BY column fingerprints, entry kind, the entry's own input
  column fingerprints and configuration)``;
* :mod:`repro.cache.budget` — per-structure byte accounting (tree
  levels, cascading bridges, prefix-aggregate arrays), charged to the
  session's memory governor;
* :mod:`repro.cache.store` — a thread-safe LRU :class:`StructureCache`
  with pinning and hit/miss/eviction counters, so cached trees can be
  shared read-only by concurrent queries; an evicted tree is dropped
  and rebuilt on its next use.

The window operator and the SQL executor integrate the cache end-to-end:
``WindowOperator(table, cache=...)`` routes every structure build through
it, and :class:`repro.sql.session.Session` owns one cache per session.
"""

from repro.cache.budget import (
    StructureSizeBreakdown,
    structure_breakdown,
    structure_bytes,
)
from repro.cache.fingerprint import (
    column_fingerprint,
    table_fingerprint,
    window_group_key,
)
from repro.cache.store import CacheStats, StructureAcquirer, StructureCache

__all__ = [
    "CacheStats",
    "StructureAcquirer",
    "StructureCache",
    "StructureSizeBreakdown",
    "column_fingerprint",
    "structure_breakdown",
    "structure_bytes",
    "table_fingerprint",
    "window_group_key",
]
