"""Benchmark harness: workloads, timing and figure regeneration.

Each ``fig*`` / ``table1`` function in :mod:`repro.bench.figures`
regenerates one table or figure from the paper's evaluation section and
returns its series in a structured form; the ``benchmarks/`` directory
wraps them in pytest-benchmark targets. :mod:`repro.bench.contenders`
holds the algorithms they compare as frame kernels over one framed
partition. Workload sizes scale with the
``REPRO_BENCH_SCALE`` environment variable (default 1.0) so the full
suite stays runnable on a laptop.
"""

from repro.bench.harness import (
    BenchSeries,
    bench_scale,
    format_table,
    measure,
    measure_with_memory,
    save_series,
    save_series_json,
    scaled,
)
from repro.bench.profiling import distinct_count_phases

__all__ = [
    "BenchSeries",
    "bench_scale",
    "distinct_count_phases",
    "format_table",
    "measure",
    "measure_with_memory",
    "save_series",
    "save_series_json",
    "scaled",
]
