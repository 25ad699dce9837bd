"""A prepared-statement/plan cache: parse once, execute many.

The serving tier (and any long-lived :class:`~repro.sql.session.
Session`) sees the same statements over and over — dashboards refresh,
clients page, load generators loop. Parsing is pure CPU on the hot
path, and the parsed :class:`~repro.sql.ast.SelectStmt` is an immutable
(frozen, hashable) tree that every query can share safely; the executor
never mutates a statement, it derives rewritten copies. So the session
keeps a :class:`PlanCache`: normalized-SQL fingerprint → parsed AST.

Design mirrors the structure cache (:mod:`repro.cache.store`) one
level up:

* **normalized keys** — the SQL text is collapsed to single spaces and
  stripped of a trailing semicolon before hashing, so reformatting a
  statement doesn't defeat the cache. Nothing else is normalized:
  case-folding would conflate string literals (``'A'`` vs ``'a'``),
  so differently-cased duplicates simply miss. Two texts with equal
  keys therefore always parse to the same AST;
* **LRU on the session ledger** — entries are charged a measured
  recursive size of their AST to the session's
  :class:`~repro.resilience.memory.MemoryGovernor` under the
  ``plan_cache`` tag, and the least-recently-used entries are evicted
  while the session is over its budget or the plans hold more than
  :data:`PLAN_CACHE_CAP_BYTES` (plans are pure parse products, so an
  evicted one is simply re-parsed on its next use);
* **observable** — hit/miss/eviction counters surface in ``EXPLAIN``
  (PlanCache section) and the session ``MetricsRegistry``
  (``repro_plan_cache_*``).

Thread safety: one lock around the map. Unlike structure builds,
parses are cheap enough that two threads racing to parse the same new
statement just both parse; last insert wins and the sizes are equal.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.resilience.memory import MemoryGovernor

__all__ = ["PLAN_CACHE_CAP_BYTES", "PlanCache", "PlanCacheStats",
           "normalize_sql", "plan_bytes"]

#: The most bytes of plans a cache holds, with or without a session
#: budget: ``repro.serve`` parses arbitrary client SQL, and an
#: unbudgeted cache would grow with every distinct text (DESIGN.md §10).
#: Generous for ASTs (a parsed analytics statement measures a few tens
#: of KiB), tiny next to data structures.
PLAN_CACHE_CAP_BYTES = 8 << 20

#: The ledger tag this cache's bytes are held under.
TAG = "plan_cache"


def _strip_comments(sql: str) -> str:
    """Remove ``--`` line comments and ``/* */`` block comments.

    String literals ('...', with '' escapes) and quoted identifiers
    ("...") are respected — comment markers inside them are content,
    not comments. Each removed comment leaves one space, so
    ``a--x\\nb`` cannot fuse into ``ab``. Block comments don't nest
    (matching the lexer); an unterminated comment runs to end of text
    and the parser reports the real error."""
    if "--" not in sql and "/*" not in sql:
        return sql
    out: List[str] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'" or ch == '"':
            quote = ch
            j = i + 1
            while j < n:
                if sql[j] == quote:
                    if quote == "'" and sql.startswith("''", j):
                        j += 2
                        continue
                    j += 1
                    break
                j += 1
            out.append(sql[i:j])
            i = j
            continue
        if sql.startswith("--", i):
            j = sql.find("\n", i)
            out.append(" ")
            i = n if j < 0 else j
            continue
        if sql.startswith("/*", i):
            j = sql.find("*/", i + 2)
            out.append(" ")
            i = n if j < 0 else j + 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def normalize_sql(sql: str) -> str:
    """Whitespace-insensitive canonical text for fingerprinting.

    Strips SQL comments (``--`` and ``/* */``, string-literal aware),
    collapses all whitespace runs to single spaces and drops one
    trailing semicolon — so reformatting or re-commenting a statement
    doesn't defeat the cache. Deliberately *not* case-insensitive —
    see the module docstring."""
    text = " ".join(_strip_comments(sql).split())
    if text.endswith(";"):
        text = text[:-1].rstrip()
    return text


def fingerprint_sql(sql: str) -> str:
    """Stable hex fingerprint of the normalized statement text."""
    return hashlib.sha256(normalize_sql(sql).encode("utf-8")).hexdigest()


def plan_bytes(plan: Any) -> int:
    """Measured recursive size of a parsed AST in bytes.

    Walks the object graph once (memoised by id) summing
    ``sys.getsizeof``; covers dataclass nodes, tuples, dicts and
    leaves. An approximation — shared interned strings are charged per
    reference — but consistent, which is all a relative LRU budget
    needs."""
    seen = set()
    total = 0
    stack = [plan]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        elif hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                stack.append(getattr(obj, slot, None))
    return total


@dataclass
class PlanCacheStats:
    """Counters exposed through ``EXPLAIN`` and the metrics registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes_in_use: int = 0     # the ledger's plan_cache tag

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def render(self) -> List[str]:
        # No byte figures here: sizes come from sys.getsizeof, which
        # differs across interpreter versions, and this text feeds the
        # EXPLAIN golden files. Bytes stay in to_dict() and /metrics.
        return [
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} hit_ratio={self.hit_ratio:.3f}",
            f"entries={self.entries}",
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "entries": self.entries,
            "bytes_in_use": self.bytes_in_use,
            "hit_ratio": self.hit_ratio,
        }


class PlanCache:
    """LRU of parsed statements on ``governor``'s ledger (a fresh
    unlimited :class:`~repro.resilience.memory.MemoryGovernor` when
    None), capped at :data:`PLAN_CACHE_CAP_BYTES`; see the module
    docstring."""

    def __init__(self, governor: Optional[MemoryGovernor] = None) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._governor = (governor if governor is not None
                          else MemoryGovernor())
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get_or_parse(self, sql: str, parse: Callable[[str], Any]) -> Any:
        """The cached plan for ``sql``, parsing (and caching) on miss.

        Returns ``(plan, hit)`` so callers can trace the outcome.
        Parsing runs outside the lock; parse errors propagate and cache
        nothing."""
        key = fingerprint_sql(sql)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0], True
            self._misses += 1
        plan = parse(sql)
        nbytes = plan_bytes(plan)
        with self._lock:
            if key in self._entries:
                # Raced with another parser of the same statement: keep
                # the incumbent (it is already shared), refresh recency.
                self._entries.move_to_end(key)
                return self._entries[key][0], True
            budget = self._governor.budget
            if nbytes > PLAN_CACHE_CAP_BYTES or (
                    budget is not None and nbytes > budget):
                return plan, False  # would evict everything; don't store
            self._entries[key] = (plan, nbytes)
            self._governor.charge(nbytes, TAG)
            self._evict()
        return plan, False

    def _evict(self) -> None:
        """Drop LRU entries while the session is over its budget or the
        plans exceed the cap (lock held)."""
        governor = self._governor
        while self._entries and (
                governor.over_budget
                or governor.held(TAG) > PLAN_CACHE_CAP_BYTES):
            _, (_, nbytes) = self._entries.popitem(last=False)
            governor.release(nbytes, TAG)
            self._evictions += 1

    # ------------------------------------------------------------------
    # management / introspection
    # ------------------------------------------------------------------
    def invalidate(self, sql: Optional[str] = None) -> None:
        """Forget one statement, or everything when ``sql`` is None."""
        with self._lock:
            if sql is None:
                self._governor.release(
                    sum(nbytes for _, nbytes in self._entries.values()),
                    TAG)
                self._entries.clear()
                return
            entry = self._entries.pop(fingerprint_sql(sql), None)
            if entry is not None:
                self._governor.release(entry[1], TAG)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions, entries=len(self._entries),
                bytes_in_use=self._governor.held(TAG))

    def metric_rows(self) -> List[Tuple]:
        """Prometheus rows in :meth:`StructureCache.metric_rows` form."""
        s = self.stats()
        return [
            ("repro_plan_cache_hits_total",
             "Plan cache hits (parse skipped).",
             "counter", (), [((), s.hits)]),
            ("repro_plan_cache_misses_total",
             "Plan cache misses (statement parsed).",
             "counter", (), [((), s.misses)]),
            ("repro_plan_cache_evictions_total",
             "Plans evicted by memory pressure or the cap.",
             "counter", (), [((), s.evictions)]),
            ("repro_plan_cache_entries", "Cached parsed statements.",
             "gauge", (), [((), s.entries)]),
            ("repro_plan_cache_bytes_in_use", "Bytes held by cached plans.",
             "gauge", (), [((), s.bytes_in_use)]),
            ("repro_plan_cache_hit_ratio", "Lifetime plan-cache hit ratio.",
             "gauge", (), [((), s.hit_ratio)]),
        ]
