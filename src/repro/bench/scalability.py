"""Task-based parallel execution cost model (Sections 3.2, 5.2, 5.5).

The paper's parallelisation results hinge on *task-based* (morsel-driven
[26]) parallelism: work is cut into fixed-size tasks (Hyper uses 20 000
tuples) executed by a worker pool. Algorithms that carry aggregation
state across rows must rebuild that state at every task boundary, which
is what pushes incremental algorithms to O(n^2) under parallel execution
while merge sort trees stay embarrassingly parallel after an O(n log n)
build.

The paper's figures come from a 20-core machine, so this module
*models* it instead of needing one: per-algorithm operation counts are
decomposed into parallel build phases and per-task probe costs, and a
list scheduler computes the makespan on a configurable worker pool. The
model is calibrated so the merge sort tree's simulated peak matches the
paper's ~9.5 M tuples/s on the 20-core machine, making relative shapes
(crossovers, plateaus) directly comparable to Figures 10-12. DESIGN.md
documents this substitution. Nothing on the query path imports this
module, and the engine has no multicore executor to measure against:
window groups evaluate serially, because a process pool fanning their
probes measured slower than serial on a 2-core machine (×1.20–1.28
warm). These modelled figures are the reproduction's only account of
the paper's parallel claims.

Operation counts follow the algorithms' published complexities
(Table 1), decomposed into a perfectly-parallel build portion and
per-task probe portions. State-carrying algorithms (incremental, order
statistic tree) pay a state re-buildup at every task boundary — the
Section 3.2 effect; under serial execution (one task) they pay it once.

Constant factors (``_C``) weight the relative cost of a hash-table
update, an array shift, a pointer-chasing tree operation and a
cache-friendly binary search; they are fixed across all figures so that
only the workload parameters vary between experiments.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class WindowWorkload:
    """One framed-window evaluation problem.

    ``avg_delta`` is the average number of rows entering plus leaving the
    frame between consecutive rows: 2 for monotonic sliding frames, and
    ``2 * (1 + m * E|jitter|)`` for the Figure 12 non-monotonic frames.
    """

    n: int
    frame_size: float
    avg_delta: float = 2.0

    @property
    def log_n(self) -> float:
        """log2 of the input size (clamped at 1)."""
        return math.log2(max(self.n, 2))

    @property
    def log_frame(self) -> float:
        """log2 of the frame size (clamped at 1)."""
        return math.log2(max(self.frame_size, 2))


# Constant factors, calibrated ONCE so the model reproduces the paper's
# published operating points on its 20-core / 40-thread machine: the
# merge sort tree peak of ~9.5M tuples/s, and the Figure 11 crossover
# frame sizes (naive ~130, incremental ~700, order statistic tree
# ~20 000, incremental distinct ~50 000). All figures reuse these values
# unchanged; only workload parameters vary between experiments.
_C = {
    "sort": 1.0,        # comparison in a cache-friendly sort
    "tree_build": 0.8,  # merging one element during MST construction
    "mst_probe": 1.6,   # one binary-search step during an MST probe
    "hash": 17.0,       # one hash-table update (incremental distinct)
    "shift": 0.09,      # moving one element in a contiguous array
    "btree": 1.3,       # one B-tree level during insert/delete/select
    "seg_probe": 2.0,   # one segment-tree probe step
    "scan": 0.08,       # touching one value in a naive rescan
}


def _tasks(n: int, task_size: int) -> List[int]:
    """Task sizes covering n rows."""
    full, rest = divmod(n, task_size)
    sizes = [task_size] * full
    if rest:
        sizes.append(rest)
    return sizes


CostFn = Callable[[WindowWorkload, int, bool], Tuple[float, List[float]]]


def _mst(w: WindowWorkload, task_size: int, serial: bool):
    build = (_C["sort"] * w.n * w.log_n
             + _C["tree_build"] * w.n * w.log_n)
    probes = [_C["mst_probe"] * t * w.log_n
              for t in _tasks(w.n, task_size)]
    return build, probes


def _naive_distinct(w: WindowWorkload, task_size: int, serial: bool):
    per_row = _C["hash"] * w.frame_size
    return 0.0, [per_row * t for t in _tasks(w.n, task_size)]


def _naive_rank(w: WindowWorkload, task_size: int, serial: bool):
    per_row = _C["scan"] * w.frame_size
    return 0.0, [per_row * t for t in _tasks(w.n, task_size)]


def _naive_median(w: WindowWorkload, task_size: int, serial: bool):
    per_row = _C["scan"] * w.frame_size * w.log_frame
    return 0.0, [per_row * t for t in _tasks(w.n, task_size)]


def _incremental_distinct(w: WindowWorkload, task_size: int, serial: bool):
    rebuild = _C["hash"] * w.frame_size
    per_row = _C["hash"] * w.avg_delta
    if serial:
        return 0.0, [rebuild + per_row * w.n]
    return 0.0, [rebuild + per_row * t for t in _tasks(w.n, task_size)]


def _incremental_median(w: WindowWorkload, task_size: int, serial: bool):
    rebuild = _C["sort"] * w.frame_size * w.log_frame
    per_update = _C["shift"] * w.frame_size / 2 + _C["sort"] * w.log_frame
    per_row = w.avg_delta * per_update
    if serial:
        return 0.0, [rebuild + per_row * w.n]
    return 0.0, [rebuild + per_row * t for t in _tasks(w.n, task_size)]


def _ostree_median(w: WindowWorkload, task_size: int, serial: bool):
    rebuild = _C["btree"] * w.frame_size * w.log_frame
    per_row = _C["btree"] * (w.avg_delta + 1) * w.log_frame
    if serial:
        return 0.0, [rebuild + per_row * w.n]
    return 0.0, [rebuild + per_row * t for t in _tasks(w.n, task_size)]


def _segtree_median(w: WindowWorkload, task_size: int, serial: bool):
    build = _C["sort"] * w.n * w.log_n
    probes = [_C["seg_probe"] * t * w.log_n ** 2
              for t in _tasks(w.n, task_size)]
    return build, probes


ALGORITHMS: Dict[str, CostFn] = {
    "mst": _mst,
    "naive_distinct": _naive_distinct,
    "naive_median": _naive_median,
    "naive_rank": _naive_rank,       # one comparison per frame row
    "naive_lead": _naive_median,     # sort frame, pick offset row
    "incremental_distinct": _incremental_distinct,
    "incremental_median": _incremental_median,
    "ostree_median": _ostree_median,
    "ostree_rank": _ostree_median,
    "segtree_median": _segtree_median,
}


def algorithm_tasks(algorithm: str, workload: WindowWorkload,
                    task_size: int = 20_000,
                    serial: bool = False) -> Tuple[float, List[float]]:
    """``(parallel_build_ops, per_task_probe_ops)`` for one algorithm."""
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: "
                         f"{sorted(ALGORITHMS)}") from None
    return fn(workload, task_size, serial)


# ----------------------------------------------------------------------
# machine model and makespan scheduling
# ----------------------------------------------------------------------
def makespan(task_costs: Sequence[float], workers: int) -> float:
    """List-schedule tasks (in submission order) onto ``workers`` and
    return the finish time — the greedy policy of a morsel-driven worker
    pool pulling tasks from a queue."""
    if not task_costs:
        return 0.0
    if workers <= 1:
        return float(sum(task_costs))
    heap: List[float] = [0.0] * workers
    for cost in task_costs:
        earliest = heapq.heappop(heap)
        heapq.heappush(heap, earliest + float(cost))
    return max(heap)


@dataclass(frozen=True)
class MachineModel:
    """The evaluation machine of Section 6.1, abstracted.

    * ``workers`` — hardware threads participating in task execution
      (the paper's box has 20 cores / 40 hardware threads);
    * ``task_size`` — tuples per task (Hyper cuts 20 000-tuple tasks);
    * ``unit_ns`` — nanoseconds per abstract operation; the default is
      calibrated so a merge sort tree window over ~6M rows lands at the
      paper's ~9.5M tuples/s peak.
    """

    workers: int = 40
    task_size: int = 20_000
    unit_ns: float = 53.0

    def seconds(self, ops: float) -> float:
        """Convert abstract operations to seconds of one core."""
        return ops * self.unit_ns * 1e-9

    def schedule(self, parallel_ops: float,
                 task_ops: Sequence[float]) -> "SimulationResult":
        """``parallel_ops`` is perfectly divisible work (e.g. a parallel
        sort/build); ``task_ops`` are per-task probe costs."""
        build_time = self.seconds(parallel_ops) / self.workers
        probe_time = self.seconds(makespan(task_ops, self.workers))
        total = self.seconds(parallel_ops + float(sum(task_ops)))
        return SimulationResult(
            total_work_ops=parallel_ops + float(sum(task_ops)),
            total_cpu_seconds=total,
            wall_seconds=build_time + probe_time,
            workers=self.workers,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated window evaluation."""

    total_work_ops: float
    total_cpu_seconds: float
    wall_seconds: float
    workers: int

    def throughput(self, rows: int) -> float:
        """Output tuples per second of wall time."""
        if self.wall_seconds == 0:
            return float("inf")
        return rows / self.wall_seconds

    @property
    def parallel_efficiency(self) -> float:
        """CPU seconds over (wall seconds x workers); 1.0 is perfect."""
        if self.wall_seconds == 0:
            return 1.0
        return self.total_cpu_seconds / (self.wall_seconds * self.workers)


# ----------------------------------------------------------------------
# simulated multi-core throughput for the benchmark figures
# ----------------------------------------------------------------------
DEFAULT_MACHINE = MachineModel()


def simulate(algorithm: str, workload: WindowWorkload,
             machine: MachineModel = DEFAULT_MACHINE,
             serial: bool = False) -> SimulationResult:
    """Simulate one framed-window evaluation.

    ``serial=True`` runs everything on one worker as a single task, which
    lets state-carrying algorithms keep their state across the whole
    input (their best case).
    """
    build, tasks = algorithm_tasks(algorithm, workload,
                                   task_size=machine.task_size,
                                   serial=serial)
    if serial:
        machine = MachineModel(workers=1, task_size=machine.task_size,
                               unit_ns=machine.unit_ns)
    return machine.schedule(build, tasks)


def throughput_series(algorithm: str, workloads: Iterable[WindowWorkload],
                      machine: MachineModel = DEFAULT_MACHINE,
                      serial: bool = False) -> List[float]:
    """Tuples/second for a sweep of workloads (one figure series)."""
    out = []
    for workload in workloads:
        result = simulate(algorithm, workload, machine=machine,
                          serial=serial)
        out.append(result.throughput(workload.n))
    return out


def crossover_point(algorithm_a: str, algorithm_b: str,
                    workloads: Iterable[WindowWorkload],
                    machine: MachineModel = DEFAULT_MACHINE
                    ) -> Optional[WindowWorkload]:
    """First workload in the sweep where ``algorithm_b`` overtakes
    ``algorithm_a`` (None if it never does)."""
    for workload in workloads:
        a = simulate(algorithm_a, workload, machine=machine)
        b = simulate(algorithm_b, workload, machine=machine)
        if b.throughput(workload.n) > a.throughput(workload.n):
            return workload
    return None


def summary_row(algorithm: str, workload: WindowWorkload,
                machine: MachineModel = DEFAULT_MACHINE) -> Dict[str, float]:
    """Parallel vs serial throughput summary for one workload."""
    parallel = simulate(algorithm, workload, machine=machine)
    serial = simulate(algorithm, workload, machine=machine, serial=True)
    return {
        "n": workload.n,
        "frame": workload.frame_size,
        "parallel_tuples_per_s": parallel.throughput(workload.n),
        "serial_tuples_per_s": serial.throughput(workload.n),
        "parallel_efficiency": parallel.parallel_efficiency,
    }
