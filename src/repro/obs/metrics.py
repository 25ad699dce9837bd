"""A thread-safe metrics registry with Prometheus text exposition.

Sessions keep one :class:`MetricsRegistry` fed from two directions:

* **push** — :meth:`~repro.sql.session.Session.execute` observes each
  query's latency and queue wait into histograms and bumps the
  per-outcome query counter as queries finish;
* **pull** — collector callbacks registered with
  :meth:`MetricsRegistry.add_collector` run at scrape time and mirror
  the live component stats (cache bytes / hit ratio,
  gateway occupancy, memory ledger) into gauges and counters, so
  the scrape always reflects the current session state without the
  components knowing the registry exists.

Exposition is deterministic by construction: metric families render
sorted by name, series within a family sorted by label values, and
label names are fixed per family at creation — which is what makes
golden-file tests of the text format stable. Values render as
Prometheus floats (``42``, ``0.5``, ``+Inf``).

Naming scheme (documented in DESIGN.md §7): every metric is prefixed
``repro_``, uses base units (seconds, bytes), and suffixes cumulative
counts with ``_total``.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: Latency-shaped default histogram buckets (seconds).
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


class _MetricFamily:
    """Common machinery: fixed label names, keyed series, one lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def _sorted_series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._series.items())

    def _label_text(self, key: Tuple[str, ...],
                    extra: str = "") -> str:
        parts = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.labelnames, key)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class Counter(_MetricFamily):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: Any) -> None:
        """Overwrite the running total — for collector callbacks that
        mirror a cumulative count maintained elsewhere (cache hits,
        admitted queries) into the registry at scrape time."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def expose_into(self, lines: List[str]) -> None:
        for key, value in self._sorted_series():
            lines.append(f"{self.name}{self._label_text(key)} "
                         f"{_format_number(value)}")

    def snapshot_into(self) -> List[Dict[str, Any]]:
        return [{"labels": dict(zip(self.labelnames, key)),
                 "value": value}
                for key, value in self._sorted_series()]


class Gauge(Counter):
    """A value that can go up and down (set wins over inc)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)


class _HistogramSeries:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_MetricFamily):
    """Cumulative-bucket histogram with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str],
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets if buckets is not None
                                    else DEFAULT_BUCKETS))

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series.counts[index] += 1
            series.total += float(value)
            series.count += 1

    def expose_into(self, lines: List[str]) -> None:
        for key, series in self._sorted_series():
            for bound, cumulative in zip(self.buckets, series.counts):
                le = f'le="{_format_number(bound)}"'
                lines.append(f"{self.name}_bucket"
                             f"{self._label_text(key, le)} {cumulative}")
            inf = 'le="+Inf"'
            lines.append(f"{self.name}_bucket"
                         f"{self._label_text(key, inf)} {series.count}")
            lines.append(f"{self.name}_sum{self._label_text(key)} "
                         f"{_format_number(series.total)}")
            lines.append(f"{self.name}_count{self._label_text(key)} "
                         f"{series.count}")

    def snapshot_into(self) -> List[Dict[str, Any]]:
        out = []
        for key, series in self._sorted_series():
            out.append({
                "labels": dict(zip(self.labelnames, key)),
                "buckets": {_format_number(b): c
                            for b, c in zip(self.buckets, series.counts)},
                "sum": series.total,
                "count": series.count,
            })
        return out


class MetricsRegistry:
    """Named metric families plus scrape-time collector callbacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # family creation (idempotent per name)
    # ------------------------------------------------------------------
    def _register(self, family: _MetricFamily) -> _MetricFamily:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if (type(existing) is not type(family)
                        or existing.labelnames != family.labelnames):
                    raise ValueError(
                        f"metric {family.name!r} already registered with "
                        f"a different type or label set")
                return existing
            self._families[family.name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(Histogram(name, help_text, labelnames,
                                        buckets=buckets))

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run before every scrape; it refreshes
        gauges / mirrored counters from live component stats."""
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    def expose(self) -> str:
        """Prometheus text exposition (runs collectors first)."""
        self.collect()
        with self._lock:
            families = sorted(self._families.values(),
                              key=lambda f: f.name)
        lines: List[str] = []
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            family.expose_into(lines)
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of every family (runs collectors first)."""
        self.collect()
        with self._lock:
            families = sorted(self._families.values(),
                              key=lambda f: f.name)
        return {family.name: {"type": family.kind, "help": family.help,
                              "series": family.snapshot_into()}
                for family in families}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=str)
