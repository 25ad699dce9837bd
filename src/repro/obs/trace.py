"""Structured per-query tracing: a span tree on a pluggable clock.

A :class:`Tracer` travels on the query's
:class:`~repro.resilience.context.ExecutionContext` and records one
:class:`Span` per instrumented phase — ``gateway.wait``, ``parse``,
``plan``, ``partition``, ``window.group``, ``structure.build`` /
``structure.reuse`` (per cache key), ``probe`` (per evaluator call) —
each carrying wall-clock start/duration, the recording thread, and
free-form attributes (row counts, byte counts, cache keys).

Design constraints, in order:

* **Free when off.** The disabled tracer is the shared
  :data:`NULL_TRACER`, whose ``enabled`` attribute is ``False``; hot
  paths guard with ``if tracer.enabled`` so a disabled query pays one
  attribute test per instrumentation point — the same discipline as
  :meth:`~repro.resilience.context.ExecutionContext.checkpoint`.
* **Thread-correct.** Spans opened on another thread (a serving pool thread)
  carry that worker's thread ordinal and attach to the span that was
  current on the *submitting* thread when a parent is supplied, or to
  the root otherwise. Parenting state is thread-local; the span tree
  itself is guarded by one small lock.
* **Deterministic rendering.** Durations come from a pluggable clock
  (a :class:`~repro.resilience.context.SimulatedClock` renders every
  span as 0.000ms), threads render as first-seen ordinals (``t0``,
  ``t1``…), and attributes keep insertion order — so golden-file tests
  of rendered traces are stable across runs and machines.
* **Bounded.** At most ``max_spans`` spans are recorded; further
  ``span()`` calls return the shared no-op handle and are counted in
  :attr:`Tracer.dropped`, so a pathological query cannot trade memory
  for observability.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return str(value)
    return str(value)


class Span:
    """One timed phase of a query, with attributes and child spans."""

    __slots__ = ("name", "start", "end", "thread", "attrs", "children")

    def __init__(self, name: str, start: float, thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        return max(self.end - self.start, 0.0)

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_all(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree, depth-first."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        """JSON-able form; times are milliseconds relative to ``origin``
        (defaults to this span's own start, making the root 0.0)."""
        if origin is None:
            origin = self.start
        node: Dict[str, Any] = {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1000.0, 6),
            "duration_ms": round(self.duration * 1000.0, 6),
            "thread": self.thread,
        }
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [c.to_dict(origin) for c in self.children]
        return node

    def render(self, max_children: Optional[int] = None) -> List[str]:
        """Indented tree lines, e.g. ``probe 0.412ms [t1] rows=500``."""
        lines: List[str] = []
        self._render_into(lines, 0, max_children)
        return lines

    def _render_into(self, lines: List[str], depth: int,
                     max_children: Optional[int]) -> None:
        attrs = " ".join(f"{k}={_format_value(v)}"
                         for k, v in self.attrs.items())
        text = (f"{self.name} {self.duration * 1000.0:.3f}ms "
                f"[t{self.thread}]")
        if attrs:
            text += " " + attrs
        lines.append("  " * depth + text)
        shown = self.children
        elided = 0
        if max_children is not None and len(shown) > max_children:
            elided = len(shown) - max_children
            shown = shown[:max_children]
        for child in shown:
            child._render_into(lines, depth + 1, max_children)
        if elided:
            lines.append("  " * (depth + 1) + f"... (+{elided} more)")

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1000.0:.3f}ms, "
                f"children={len(self.children)})")


class _SpanHandle:
    """Context manager closing one open span on exit."""

    __slots__ = ("_tracer", "_span", "_stack")

    def __init__(self, tracer: "Tracer", span: Span,
                 stack: List[Span]) -> None:
        self._tracer = tracer
        self._span = span
        self._stack = stack

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> None:
        self._span.end = self._tracer._now()
        stack = self._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        elif self._span in stack:  # pragma: no cover - defensive
            stack.remove(self._span)

    def annotate(self, **attrs: Any) -> None:
        self._span.annotate(**attrs)


class _NullSpan:
    """Shared no-op stand-in for a span handle (and for a span)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Per-query span recorder (see module docstring).

    ``clock`` is any object with ``monotonic()`` (the resilience
    clocks); ``None`` uses ``time.perf_counter``. The tracer opens its
    own root span (named ``root_name``) at construction; :meth:`finish`
    closes it and returns it.
    """

    enabled = True

    def __init__(self, clock: Any = None, max_spans: int = 10_000,
                 root_name: str = "query") -> None:
        self._now = (clock.monotonic if clock is not None
                     else time.perf_counter)
        self.max_spans = max(int(max_spans), 1)
        self.dropped = 0
        self._count = 1  # the root
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_ordinals: Dict[int, int] = {}
        self.root = Span(root_name, self._now(), self._ordinal())
        self._finished = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _ordinal(self) -> int:
        ident = threading.get_ident()
        ordinal = self._thread_ordinals.get(ident)
        if ordinal is None:
            ordinal = len(self._thread_ordinals)
            self._thread_ordinals[ident] = ordinal
        return ordinal

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: Any) -> Any:
        """Open a span; use as ``with tracer.span("probe", rows=n):``.

        The span parents onto this thread's innermost open span, the
        explicit ``parent`` (for work handed to pool threads), or the
        root. Past ``max_spans`` the shared no-op handle is returned and
        the drop is counted."""
        stack = self._stack()
        start = self._now()
        with self._lock:
            if self._count >= self.max_spans:
                self.dropped += 1
                return NULL_SPAN
            self._count += 1
            span = Span(name, start, self._ordinal())
            if attrs:
                span.attrs.update(attrs)
            anchor = stack[-1] if stack else parent
            (anchor if anchor is not None else self.root) \
                .children.append(span)
        stack.append(span)
        return _SpanHandle(self, span, stack)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration span (e.g. ``structure.reuse``)."""
        handle = self.span(name, **attrs)
        if handle is not NULL_SPAN:
            handle.__exit__()

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to this thread's innermost open span
        (or the root when none is open)."""
        with self._lock:
            self.current().attrs.update(attrs)

    def current(self) -> Span:
        """This thread's innermost open span, or the root."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        if not self._finished:
            self.root.end = self._now()
            self._finished = True
        return self.root

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = self.root.to_dict()
        if self.dropped:
            payload["dropped_spans"] = self.dropped
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self, max_children: Optional[int] = None) -> str:
        """The whole trace as an indented tree."""
        lines = self.root.render(max_children=max_children)
        if self.dropped:
            lines.append(f"({self.dropped} span(s) dropped at the "
                         f"{self.max_spans}-span cap)")
        return "\n".join(lines)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shared process-wide as :data:`NULL_TRACER`; hot paths check
    ``tracer.enabled`` before building attribute dicts, so a query
    without tracing pays one attribute test per instrumentation point.
    """

    enabled = False
    root = None
    dropped = 0

    __slots__ = ()

    def span(self, name: str = "", parent: Any = None,
             **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str = "", **attrs: Any) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass

    def current(self) -> _NullSpan:
        return NULL_SPAN

    def finish(self) -> None:
        return None

    def render(self, max_children: Optional[int] = None) -> str:
        return ""

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def to_json(self, indent: Optional[int] = None) -> str:
        return "{}"


NULL_TRACER = NullTracer()
