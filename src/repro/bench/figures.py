"""Regeneration of every table and figure in the paper's evaluation.

Each function reproduces one experiment and returns a
:class:`~repro.bench.harness.BenchSeries`. Two kinds of numbers appear:

* **measured** — wall-clock times of the actual implementations in this
  package (single-threaded CPython, scaled-down inputs). Every
  contender of Figures 10–12 and Table 1 is timed the same way: one
  :func:`~repro.bench.contenders.kernel` call over a partition that
  :func:`~repro.bench.contenders.partition` sorted and framed outside
  the timer;
* **simulated** — multi-core throughput from the calibrated task-parallel
  cost model (:mod:`repro.bench.scalability`), which reproduces the
  paper's 20-core effects on any box (see DESIGN.md).

Absolute values differ from the paper's C++-on-40-threads numbers by
construction; the *shapes* — who wins, crossover locations, flatness of
the merge sort tree — are the reproduction targets and are recorded
side by side in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.tableau import tableau_window_percentile
from repro.bench.contenders import kernel, partition
from repro.bench.harness import BenchSeries, measure, scaled
from repro.bench.profiling import distinct_count_phases
from repro.bench.scalability import MachineModel, WindowWorkload, simulate
from repro.mst.stats import MemoryModel
from repro.mst.tree import MergeSortTree
from repro.mst.vectorized import batched_count
from repro.sql import Catalog, execute
from repro.tpch import lineitem, lineitem_arrays
from repro.window import (
    FrameSpec,
    WindowCall,
    WindowSpec,
    current_row,
    following,
    preceding,
    window_query,
)
from repro.window.frame import OrderItem
from repro.window.partition import PartitionView

_MACHINE = MachineModel()


def _median_call(algorithm: str = "mst") -> WindowCall:
    return WindowCall("percentile_disc", ("l_extendedprice",), fraction=0.5,
                      algorithm=algorithm, output="med")


_RANK_CALL = WindowCall("rank", order_by=(OrderItem("l_extendedprice"),),
                        output="rnk")
_DISTINCT_CALL = WindowCall("count", ("l_partkey",), distinct=True,
                            output="dc")


def _time(call: WindowCall, contender: str, part: PartitionView) -> float:
    """Wall time of one contender's kernel over an already framed
    partition."""
    run = kernel(call, contender)
    return measure(lambda: run(part))


def _sliding_spec(size: int) -> WindowSpec:
    return WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(size), current_row()))


# ----------------------------------------------------------------------
# Figure 9 — necessity of native support
# ----------------------------------------------------------------------
_FIG9_SUBQUERY = """
 with lineitem_rn as (
   select l_shipdate, l_extendedprice,
          row_number() over (order by l_shipdate) as rn
   from lineitem)
 select (
    select percentile_disc(0.5) within group (order by l_extendedprice)
    from lineitem_rn l2
    where l2.rn between l1.rn - {frame} and l1.rn)
 from lineitem_rn l1
"""

_FIG9_SELFJOIN = """
 with lineitem_rn as (
   select l_shipdate, l_extendedprice,
          row_number() over (order by l_shipdate) as rn
   from lineitem)
 select percentile_disc(0.5) within group (order by l2.l_extendedprice)
 from lineitem_rn l1 join lineitem_rn l2
   on l2.rn between l1.rn - {frame} and l1.rn
 group by l1.rn
"""


def fig09_sql_formulations(num_rows: Optional[int] = None,
                           frame: int = 999) -> BenchSeries:
    """Figure 9: framed median via traditional SQL formulations vs the
    client-side table calc vs native naive vs native merge sort tree.

    The paper uses 20 000 rows; the default here is scaled down because
    the O(n^2) formulations run on an interpreted engine — the *ratios*
    are the result.
    """
    n = num_rows or scaled(2_000)
    table = lineitem(n)
    catalog = Catalog({"lineitem": table})
    series = BenchSeries(
        f"Figure 9 — framed median on {n} rows, frame {frame}",
        ["approach", "seconds", "tuples_per_s", "speedup_vs_best_sql"])

    def run_sql(sql: str) -> float:
        return measure(lambda: execute(sql.format(frame=frame), catalog))

    timings: Dict[str, float] = {}
    timings["SQL correlated subquery"] = run_sql(_FIG9_SUBQUERY)
    timings["SQL self join"] = run_sql(_FIG9_SELFJOIN)

    order = np.argsort(table.column("l_shipdate").raw(), kind="stable")
    prices = [float(v) for v in
              np.asarray(table.column("l_extendedprice").raw())[order]]
    timings["Tableau-style client calc"] = measure(
        lambda: tableau_window_percentile(prices, 0.5, frame))

    spec = _sliding_spec(frame)
    for label, algorithm in [("native naive", "naive"),
                             ("native merge sort tree", "mst")]:
        timings[label] = measure(
            lambda algorithm=algorithm: window_query(
                table, [_median_call(algorithm)], spec))

    best_sql = min(timings["SQL correlated subquery"],
                   timings["SQL self join"])
    for label, seconds in timings.items():
        series.add(label, seconds, n / seconds, best_sql / seconds)
    series.note("paper: naive 15x over Tableau, MST 63x over best SQL "
                "(20k rows, Hyper)")
    return series


# ----------------------------------------------------------------------
# Figure 10 — throughput vs input size
# ----------------------------------------------------------------------
#: Per function: the call, and per measured contender its cost-model
#: name.
_FIG10_FUNCTIONS = {
    "median": (_median_call(), {
        "mst": "mst", "incremental": "incremental_median",
        "ostree": "ostree_median", "naive": "naive_median"}),
    "rank": (_RANK_CALL, {
        "mst": "mst", "ostree": "ostree_rank", "naive": "naive_rank"}),
    "lead": (WindowCall("lead", ("l_extendedprice",),
                        order_by=(OrderItem("l_extendedprice"),),
                        output="nxt"), {
        "mst": "mst", "naive": "naive_lead"}),
    "distinct count": (_DISTINCT_CALL, {
        "mst": "mst", "incremental": "incremental_distinct",
        "naive": "naive_distinct"}),
}

# Per-row cost guards: skip a measured configuration when its projected
# runtime exceeds the budget (the naive algorithms are O(n * frame)).
_MEASURE_BUDGET_SECONDS = 20.0


def fig10_scalability(sizes: Optional[Sequence[int]] = None,
                      frame_fraction: float = 0.05) -> BenchSeries:
    """Figure 10: throughput of the holistic functions for increasing
    problem sizes (frame = 5% of input)."""
    sizes = list(sizes) if sizes is not None else [
        scaled(2_000), scaled(5_000), scaled(10_000), scaled(20_000)]
    series = BenchSeries(
        "Figure 10 — throughput vs input size (frame = 5% of n)",
        ["function", "algorithm", "n", "measured_s", "measured_tps",
         "simulated_20core_tps"])
    frames = {n: max(int(n * frame_fraction), 1) for n in sizes}
    parts = {n: partition(lineitem(n), _sliding_spec(frames[n]))
             for n in sizes}
    for fn_name, (call, simulated) in _FIG10_FUNCTIONS.items():
        for algorithm, sim_name in simulated.items():
            for n in sizes:
                frame = frames[n]
                if _projected_seconds(algorithm, n, frame) \
                        > _MEASURE_BUDGET_SECONDS:
                    seconds = float("nan")
                    tps = float("nan")
                else:
                    seconds = _time(call, algorithm, parts[n])
                    tps = n / seconds
                sim = simulate(sim_name,
                               WindowWorkload(n=n, frame_size=frame),
                               machine=_MACHINE)
                series.add(fn_name, algorithm, n, seconds, tps,
                           sim.throughput(n))
    series.note("paper peaks: MST 9.5M tuples/s at 0.8M rows; naive and "
                "incremental median < 0.6M tuples/s throughout")
    return series


def fig10_simulated_sweep(sizes: Optional[Sequence[int]] = None
                          ) -> BenchSeries:
    """The Figure 10 curves at the paper's full input sizes, from the
    calibrated cost model (measurement is infeasible at 2M rows in
    CPython)."""
    sizes = list(sizes) if sizes is not None else [
        50_000, 100_000, 200_000, 350_000, 800_000, 1_200_000, 2_000_000]
    series = BenchSeries(
        "Figure 10 (simulated) — 20-core throughput vs input size",
        ["algorithm", "n", "tuples_per_s"])
    for algorithm in ["mst", "incremental_median", "ostree_median",
                      "naive_median", "incremental_distinct",
                      "naive_distinct"]:
        for n in sizes:
            workload = WindowWorkload(n=n, frame_size=max(n * 0.05, 1))
            sim = simulate(algorithm, workload, machine=_MACHINE)
            series.add(algorithm, n, sim.throughput(n))
    return series


def _projected_seconds(algorithm: str, n: int, frame: int) -> float:
    """Crude upper-bound projection to skip hopeless measured configs."""
    if algorithm == "naive":
        return n * frame * 2e-7
    if algorithm == "incremental":
        return n * frame * 3e-8 + n * 2e-6
    if algorithm == "ostree":
        return n * math.log2(max(frame, 2)) * 2.5e-5
    return n * 3e-5  # mst and friends: comfortably linear-ish


# ----------------------------------------------------------------------
# Figure 11 — throughput vs frame size
# ----------------------------------------------------------------------
def fig11_frame_sizes(num_rows: Optional[int] = None,
                      frames: Optional[Sequence[int]] = None) -> BenchSeries:
    """Figure 11: framed median for increasing frame sizes."""
    n = num_rows or scaled(20_000)
    frames = list(frames) if frames is not None else [
        10, 30, 100, 300, 1_000, 3_000, 10_000, n]
    table = lineitem(n)
    series = BenchSeries(
        f"Figure 11 — framed median vs frame size (n = {n})",
        ["algorithm", "frame", "measured_s", "measured_tps",
         "simulated_20core_tps"])
    sim_names = {"mst": "mst", "incremental": "incremental_median",
                 "ostree": "ostree_median", "naive": "naive_median"}
    parts = {frame: partition(table, _sliding_spec(frame))
             for frame in frames}
    for algorithm, sim_name in sim_names.items():
        for frame in frames:
            if _projected_seconds(algorithm, n, frame) \
                    > _MEASURE_BUDGET_SECONDS:
                seconds, tps = float("nan"), float("nan")
            else:
                seconds = _time(_median_call(), algorithm, parts[frame])
                tps = n / seconds
            sim = simulate(
                sim_name,
                WindowWorkload(n=6_000_000, frame_size=min(frame * (6_000_000 / n), 6_000_000)),
                machine=_MACHINE)
            series.add(algorithm, frame, seconds, tps,
                       sim.throughput(6_000_000))
    series.note("paper crossovers vs MST: naive ~130, incremental ~700, "
                "ostree ~20000; MST flat at ~9.3M tuples/s")
    return series


def fig11_crossovers() -> BenchSeries:
    """The Figure 11 crossover frame sizes from the cost model."""
    n = 6_000_000
    series = BenchSeries("Figure 11 — crossover frame sizes vs MST (model)",
                         ["algorithm", "crossover_frame", "paper"])
    paper = {"naive_median": 130, "incremental_median": 700,
             "ostree_median": 20_000, "incremental_distinct": 50_000}
    for algorithm, expected in paper.items():
        lo, hi = 2, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            a = simulate(algorithm, WindowWorkload(n=n, frame_size=mid),
                         machine=_MACHINE)
            b = simulate("mst", WindowWorkload(n=n, frame_size=mid),
                         machine=_MACHINE)
            if a.throughput(n) > b.throughput(n):
                lo = mid
            else:
                hi = mid
        series.add(algorithm, hi, expected)
    return series


# ----------------------------------------------------------------------
# Figure 12 — non-monotonic frames
# ----------------------------------------------------------------------
def fig12_nonmonotonic(num_rows: Optional[int] = None,
                       ms: Optional[Sequence[float]] = None) -> BenchSeries:
    """Figure 12: framed median for increasingly non-monotonic frames.

    The frame is the paper's construction:
    ``rows between m*mod(price*7703, 499) preceding and
    500 - m*mod(price*7703, 499) following``.
    """
    n = num_rows or scaled(5_000)
    ms = list(ms) if ms is not None else [0.0, 0.01, 0.05, 0.1, 0.25, 0.5,
                                          0.75, 1.0]
    table = lineitem(n)
    price_cents = np.round(
        np.asarray(table.column("l_extendedprice").raw()) * 100
    ).astype(np.int64)
    jitter = (price_cents * 7703) % 499
    series = BenchSeries(
        f"Figure 12 — framed median vs non-monotonicity (n = {n})",
        ["algorithm", "m", "measured_s", "measured_tps", "avg_delta",
         "simulated_20core_tps"])
    offsets = {m: (np.floor(m * jitter).astype(np.int64),
                   np.maximum(500 - np.floor(m * jitter), 0).astype(np.int64))
               for m in ms}
    parts = {m: partition(table, WindowSpec(
        order_by=(OrderItem("l_shipdate"),),
        frame=FrameSpec.rows(preceding(start_off), following(end_off))))
        for m, (start_off, end_off) in offsets.items()}
    sim_names = {"mst": "mst", "incremental": "incremental_median",
                 "naive": "naive_median"}
    for algorithm, sim_name in sim_names.items():
        for m in ms:
            seconds = _time(_median_call(), algorithm, parts[m])
            delta = _average_delta(*offsets[m], n)
            sim = simulate(sim_name,
                           WindowWorkload(n=6_000_000, frame_size=500,
                                          avg_delta=delta),
                           machine=_MACHINE)
            series.add(algorithm, m, seconds, n / seconds, delta,
                       sim.throughput(6_000_000))
    series.note("paper: incremental loses to MST at any m > 0 and falls "
                "below naive as m grows")
    return series


def _average_delta(start_off: np.ndarray, end_off: np.ndarray,
                   n: int) -> float:
    """Average rows entering+leaving between consecutive frames (the
    incremental algorithms' per-row workload)."""
    i = np.arange(n, dtype=np.int64)
    lo = np.clip(i - start_off, 0, n)
    hi = np.clip(i + end_off + 1, 0, n)
    moves = np.abs(np.diff(lo)) + np.abs(np.diff(hi))
    return float(moves.mean()) if len(moves) else 0.0


# ----------------------------------------------------------------------
# Figure 13 — fanout and pointer sampling
# ----------------------------------------------------------------------
def fig13_fanout_sampling(num_keys: Optional[int] = None,
                          fanouts: Optional[Sequence[int]] = None,
                          samplings: Optional[Sequence[int]] = None,
                          queries: Optional[int] = None) -> BenchSeries:
    """Figure 13: single-threaded MST build+probe time for a windowed
    rank over uniformly random integers, for a grid of fanout f and
    pointer sampling k (paper: 1M keys, f x k grid, star at f=k=32).
    The probe is one batched count over all queries, as the window
    operator issues it."""
    n = num_keys or scaled(5_000)
    fanouts = list(fanouts) if fanouts is not None else [2, 4, 8, 16, 32, 64]
    samplings = list(samplings) if samplings is not None \
        else [1, 4, 16, 32, 64, 256]
    q = queries or n
    rng = np.random.default_rng(13)
    keys = rng.integers(0, n, size=n, dtype=np.int64)
    frame = max(n // 20, 1)
    i = np.arange(q, dtype=np.int64) % n
    lo = np.maximum(i - frame, 0)
    hi = i + 1
    thresholds = keys[i]

    series = BenchSeries(
        f"Figure 13 — rank query time by fanout f and sampling k "
        f"(n = {n}, {q} queries)",
        ["fanout", "sampling", "seconds", "relative_to_best",
         "memory_elements"])

    def run(f: int, k: int) -> float:
        def job() -> None:
            tree = MergeSortTree(keys, fanout=f, sample_every=k)
            batched_count(tree.levels, lo, hi, thresholds)
        return measure(job)

    cells = [(f, k, run(f, k)) for f in fanouts for k in samplings]
    best = min(c[2] for c in cells)
    for f, k, seconds in cells:
        series.add(f, k, seconds, seconds / best,
                   MemoryModel(n, f, k).elements)
    series.note("paper: best time at f=16,k=4; f=k=32 chosen for its "
                "2.8x lower memory at <1.25x the best time")
    return series


# ----------------------------------------------------------------------
# Figure 14 — cost breakdown
# ----------------------------------------------------------------------
def fig14_cost_breakdown(num_rows: Optional[int] = None) -> BenchSeries:
    """Figure 14: execution phases of a framed distinct count (the paper
    runs TPC-H SF 10, ~60M rows; scaled down here)."""
    n = num_rows or scaled(200_000)
    arrays = lineitem_arrays(n)
    phases = distinct_count_phases(arrays["l_shipdate"],
                                   arrays["l_partkey"],
                                   frame_preceding=n)
    total = sum(seconds for _, seconds in phases)
    series = BenchSeries(
        f"Figure 14 — phases of a running COUNT DISTINCT (n = {n})",
        ["phase", "seconds", "fraction"])
    for label, seconds in phases:
        series.add(label, seconds, seconds / total if total else 0.0)
    series.add("TOTAL", total, 1.0)
    series.note("paper (SF10, 3.3s total): sorting and tree building "
                "dominate; result computation is the final large phase")
    return series


# ----------------------------------------------------------------------
# Table 1 — complexity classes, verified empirically
# ----------------------------------------------------------------------
def table1_complexity(sizes: Optional[Sequence[int]] = None) -> BenchSeries:
    """Table 1: fit log-log slopes of measured runtime vs input size for
    each algorithm under SQL's default frame (UNBOUNDED PRECEDING ..
    CURRENT ROW, so the frame grows with n)."""
    # A geometric factor of 3 keeps the fits clean: with a narrower
    # range, fixed per-row interpreter overheads dilute the quadratic
    # algorithms' fitted exponents below their asymptotic values.
    sizes = list(sizes) if sizes is not None else [
        scaled(1_000), scaled(3_000), scaled(9_000)]
    spec = WindowSpec(order_by=(OrderItem("l_shipdate"),),
                      frame=FrameSpec.rows(preceding(10 ** 9),
                                           current_row()))
    median = _median_call()
    configs = [
        ("dist. count", "incremental", "O(n)", 1.0, _DISTINCT_CALL,
         "incremental"),
        ("dist. count", "MST", "O(n log n)", 1.1, _DISTINCT_CALL, "mst"),
        ("dist. count", "naive", "O(n^2)", 2.0, _DISTINCT_CALL, "naive"),
        ("percentile", "incremental", "O(n^2)", 2.0, median,
         "incremental"),
        ("percentile", "segment tree", "O(n log^2 n)", 1.2, median,
         "segtree"),
        ("percentile", "order statistic tree", "O(n log n)", 1.1, median,
         "ostree"),
        ("percentile", "MST", "O(n log n)", 1.1, median, "mst"),
        ("percentile", "naive", "O(n^2)", 2.0, median, "naive"),
        ("rank", "MST", "O(n log n)", 1.1, _RANK_CALL, "mst"),
        ("rank", "naive", "O(n^2)", 2.0, _RANK_CALL, "naive"),
    ]
    series = BenchSeries(
        "Table 1 — empirical log-log slopes (runtime vs n, running frame)",
        ["aggregate", "algorithm", "paper_complexity", "expected_slope",
         "fitted_slope", "parallelizable"])
    parallel = {"MST": "yes", "segment tree": "yes", "incremental": "no",
                "order statistic tree": "no", "naive": "embarrassingly"}
    parts = [partition(lineitem(n), spec) for n in sizes]
    for aggregate, algorithm, complexity, expected, call, contender \
            in configs:
        times = [_time(call, contender, part) for part in parts]
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        series.add(aggregate, algorithm, complexity, expected,
                   float(slope), parallel[algorithm])
    series.note("slopes fitted over small n in CPython carry interpreter "
                "noise; the ordering (linear < loglinear < quadratic) is "
                "the reproduction target")
    return series


# ----------------------------------------------------------------------
# Section 6.6 — memory model
# ----------------------------------------------------------------------
def memory_model_table() -> BenchSeries:
    """Section 6.6: the paper's merge-sort-tree memory numbers."""
    series = BenchSeries(
        "Section 6.6 — MST memory at 100M elements (32-bit indices)",
        ["config", "elements", "gigabytes", "paper_gb"])
    for f, k, paper in [(16, 4, 12.4), (32, 32, 4.4)]:
        model = MemoryModel(100_000_000, f, k)
        series.add(f"f={f}, k={k}", model.elements, model.gigabytes, paper)
    base = MemoryModel(100_000_000, 32, 32)
    overhead = base.bytes / 1.6e9
    series.note(f"window operator baseline 1.6 GB -> overhead factor "
                f"{overhead:.2f} (paper: 2.75)")
    return series
