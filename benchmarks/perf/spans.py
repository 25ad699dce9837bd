"""Benchmark-side spans: recorded around calls into each layer's
public functions, kept in memory, written out when the run ends.

A span is a dict ``{id, parent, stmt, name, start_ms, duration_ms,
source, attrs}``. ``source`` is ``bench`` for spans opened here and
``engine_span`` for the engine's own ``QueryOptions(trace=True)`` tree
adopted beneath one of them. Nothing under ``src/`` is instrumented by
this module.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Recorder:
    """Single-threaded span recorder (traced passes run one caller)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, stmt: Optional[str] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "stmt": stmt if stmt is not None or parent is None
            else parent["stmt"],
            "name": name, "source": "bench", "attrs": attrs,
            "start_ms": (time.perf_counter() - self._origin) * 1000.0,
            "duration_ms": 0.0,
        }
        self.spans.append(record)
        self._open.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["duration_ms"] = (time.perf_counter() - start) * 1000.0
            self._open.pop()

    def adopt(self, tree: Optional[Dict[str, Any]],
              under: Dict[str, Any]) -> None:
        """Hang an engine span tree (``Span.to_dict()`` shape, as the
        session and the wire both return it) beneath ``under``."""
        if not tree:
            return
        stack = [(tree, under["id"])]
        while stack:
            node, parent = stack.pop()
            record = {
                "id": len(self.spans), "parent": parent,
                "stmt": under["stmt"], "name": node["name"],
                "source": "engine_span", "attrs": node.get("attrs", {}),
                "start_ms": under["start_ms"] + node["start_ms"],
                "duration_ms": node["duration_ms"],
            }
            self.spans.append(record)
            stack.extend((child, record["id"])
                         for child in node.get("children", ()))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def self_ms(self) -> Dict[int, float]:
        """Per span id: its duration minus its direct children's."""
        own = {s["id"]: s["duration_ms"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["duration_ms"]
        return {sid: max(ms, 0.0) for sid, ms in own.items()}

    def total_ms(self, name: str, own: Optional[Dict[int, float]] = None
                 ) -> float:
        """Summed duration (self time when ``own`` is given) of every
        span called ``name``."""
        return sum((own[s["id"]] if own is not None else s["duration_ms"]
                    for s in self.spans if s["name"] == name), 0.0)

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]
