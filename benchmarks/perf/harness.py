"""One run of one workload: set up, measure for ``--seconds``, check,
print one JSON line. This is what ``BENCHMARK.json``'s command does.

End-to-end metrics are generic over the four workloads (every run
prints every one of them): the pass, its slowest statement, the
geometric mean over its statements, set-up time and peak memory. The
per-statement
numbers that name a single workload's statements are per-layer
metrics, printed by a ``--trace 1`` run beside the span-derived ones.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import json
import os
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf import OUT, host_meta, use_source_tree

#: End-to-end metrics: name -> unit, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "pass_ms": "ms",
    "slowest_query_ms": "ms",
    "geomean_query_ms": "ms",
    "peak_rss_mb": "MB",
}
#: A run times at least this many passes however short ``--seconds`` is,
#: so that every per-statement median can shrug off one disturbed pass.
MIN_PASSES = 3


def summary(samples: Sequence[float], scale: float = 1.0) -> Dict[str, Any]:
    """Median with its sample count and quartiles beside it."""
    values = sorted(s * scale for s in samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values),
            "q1": q1, "q3": q3}


def by_statement(passes: Sequence[Any], loaded: bool = False
                 ) -> Dict[str, List[float]]:
    """Seconds per statement/class, pooled over ``passes``."""
    pooled: Dict[str, List[float]] = {}
    for one in passes:
        for name, seconds in (one.loaded_ops if loaded else one.ops):
            pooled.setdefault(name, []).append(seconds)
    return pooled


def end_to_end(workload: Any, setups: Sequence[float],
               passes: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    statements = {name: summary(seconds, 1000.0)
                  for name, seconds in by_statement(passes).items()}
    medians = [s["value"] for s in statements.values()]
    metrics = {
        "setup_s": summary(setups),
        "pass_ms": summary([p.wall for p in passes], 1000.0),
        "slowest_query_ms": max(statements.values(),
                                key=lambda s: s["value"]),
        # Every statement weighs the same here, cheap or dear; the pass
        # (their sum) is dominated by the few dear ones.
        "geomean_query_ms": summary([statistics.geometric_mean(medians)]),
        "peak_rss_mb": summary([workload.peak_rss_mb()]),
    }
    for name, unit in END_TO_END.items():
        metrics[name] = dict(metrics[name], unit=unit)
    return {"metrics": metrics, "statements": statements}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, golden_dir: Optional[str] = None
        ) -> Dict[str, Any]:
    """Everything one ``BENCHMARK.json`` command invocation does;
    returns the detail record (also written under ``out/``)."""
    from benchmarks.perf.workloads import WORKLOADS
    workload = WORKLOADS[workload_name](seed, smoke=smoke,
                                        golden_dir=golden_dir)
    # A traced run spends its time on the traced pass and the probes;
    # it needs set-up and the untraced passes only as the baseline.
    repeats = 1 if (smoke or trace) else workload.setup_repeats
    setups: List[float] = []
    try:
        for i in range(repeats):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        workload.verify()
        digest = workload.inputs_digest()
        passes = []
        budget = 0.0 if smoke else seconds / 2 if trace else seconds
        deadline = time.perf_counter() + budget
        floor = 1 if smoke else MIN_PASSES
        while len(passes) < floor or time.perf_counter() < deadline:
            passes.append(workload.run_pass())
        layers: Dict[str, Any] = {}
        if trace:
            from benchmarks.perf import layers as per_layer
            layers = per_layer.measure(workload, passes, smoke)
    finally:
        workload.teardown()
    detail = end_to_end(workload, setups, passes)
    if trace:
        layers["metrics"]["error_share"] = (
            len(workload.errors) / max(workload.attempted, 1))
        detail["per_layer"] = layers
    detail.update(
        workload=workload_name, seed=seed, seconds=seconds, trace=trace,
        smoke=smoke, passes=len(passes), setup_repeats=repeats,
        attempted=workload.attempted, failed=len(workload.errors),
        errors=workload.errors[:20], inputs_digest=digest)
    return detail


def result_line(detail: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's last line: end-to-end metrics untraced, per-layer
    metrics traced. A probe whose entry point has moved has no number;
    it prints as -1 and its reason stays in the detail file."""
    if detail["trace"]:
        from benchmarks.perf.layers import PER_LAYER
        values = detail["per_layer"]["metrics"]
        metrics = {
            name: {"value": -1.0 if values.get(name) is None
                   else values[name], "unit": unit}
            for name, (unit, _better, _moves) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in detail["metrics"].items()}
    return {"correct": detail["failed"] == 0,
            "attempted": detail["attempted"], "failed": detail["failed"],
            "metrics": metrics}


def describe(detail: Dict[str, Any]) -> str:
    """Every metric by name with its unit, for people."""
    lines = [f"{detail['workload']} (seed {detail['seed']}, "
             f"{detail['passes']} passes, {detail['attempted']} operations, "
             f"{detail['failed']} failed)"]
    for name, m in detail["metrics"].items():
        lines.append(f"  {name:<22}{m['value']:>12.3f} {m['unit']:<4} "
                     f"n={m['n']} q1={m['q1']:.3f} q3={m['q3']:.3f}")
    for name, m in detail["statements"].items():
        lines.append(f"    {name:<20}{m['value']:>12.3f} ms   n={m['n']} "
                     f"q1={m['q1']:.3f} q3={m['q3']:.3f}")
    if detail["trace"]:
        from benchmarks.perf.layers import PER_LAYER
        for name, value in detail["per_layer"]["metrics"].items():
            shown = "null" if value is None else f"{value:.4f}"
            lines.append(f"  {name:<32}{shown:>14} {PER_LAYER[name][0]}")
        for name, why in detail["per_layer"]["unavailable"].items():
            lines.append(f"  {name}: null ({why})")
    return "\n".join(lines)


def child_pids() -> List[int]:
    """Processes whose parent is this one, ended-but-unreaped included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # ended while we were looking
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has
    ended, so that nothing of one run is alive during the next.

    The engine's process executor (a per-layer probe uses it) starts
    ``multiprocessing``'s resource tracker, which ignores SIGTERM and
    would otherwise outlive this interpreter by a moment: it ends when
    its pipe closes. Whatever else is left gets SIGTERM, then SIGKILL.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()  # closes the pipe and waits for the tracker
        except Exception:  # boundary: fall through to the signals below
            pass
    deadline = time.monotonic() + grace
    while True:
        pids = child_pids()
        if not pids:
            return
        kill = time.monotonic() > deadline
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL if kill else signal.SIGTERM)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.05)


def own_every_process() -> None:
    """Arrange that no path out of this run leaves a process behind.

    As a child subreaper (Linux ``prctl``) this process inherits any
    grandchild whose parent has died, so ``stop_children`` sees it.
    Registered before the engine is imported, ``stop_children`` is the
    last exit hook to run — after the engine's own shared-memory sweep,
    which could start the resource tracker again. SIGTERM (a driver's
    time-out) becomes a normal exit so that the hooks run at all.
    """
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still stopped
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def main(argv: Optional[Sequence[str]] = None) -> int:
    own_every_process()
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="Run one workload of the gated benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass (the smoke test)")
    parser.add_argument("--golden-dir", default=None,
                        help="read TPC-H golden digests from here")
    args = parser.parse_args(argv)
    use_source_tree()
    from benchmarks.perf.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 smoke=args.smoke, golden_dir=args.golden_dir)
    detail["meta"] = host_meta()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str))
    print(describe(detail))
    print(f"  detail: {path}")
    sys.stdout.flush()
    print(json.dumps(result_line(detail)))
    return 0
