"""``python -m benchmarks.perf`` — the benchmark for people.

    run        all four workloads, each in a fresh interpreter, untraced;
               ``--traced`` adds one traced run of each (per-layer
               metrics, tracing overhead); writes ``out/run-*.json``
    verify     regenerate the TPC-H golden digests from the independent
               reference (``repro.tpch.REFERENCE``)
    compare    A.json B.json: one row per workload x end-to-end metric
    selfcheck  two alternating sets of runs of this checkout, compared

Run from the repository root. No performance claim is made anywhere in
this package; it only measures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf import (GOLDEN, HERE, OUT, ROOT, host_meta,
                             use_source_tree)
from benchmarks.perf.harness import END_TO_END
from benchmarks.perf.statements import TPCH_SCALE, TPCH_SMOKE_SCALE
from benchmarks.perf.workloads import WORKLOADS, rows_digest


def _contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _commit() -> str:
    """HEAD, marked when the tree it was measured from differs."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=10).stdout
    try:
        dirty = "+dirty" if git("status", "--porcelain").strip() else ""
        return git("rev-parse", "HEAD").strip() + dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _meta(args: argparse.Namespace) -> Dict[str, Any]:
    return dict(
        host_meta(), commit=_commit(), seed=args.seed, seconds=args.seconds,
        smoke=args.smoke,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))


def _one(workload: str, args: argparse.Namespace, trace: int
         ) -> Dict[str, Any]:
    """One workload in a fresh child interpreter; returns its detail."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.golden_dir:
        command += ["--golden-dir", args.golden_dir]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: benchmark run exited "
                         f"{done.returncode}")
    sys.stderr.write(done.stderr)
    print("\n".join(done.stdout.splitlines()[:-1]))
    return json.loads((OUT / f"{workload}.trace{trace}.json").read_text())


def collect(args: argparse.Namespace, repeat: int = 1, traced: bool = False
            ) -> Dict[str, Any]:
    """``repeat`` untraced runs of every workload (and one traced run
    when asked), folded into one result record."""
    record: Dict[str, Any] = {"meta": _meta(args), "workloads": {}}

    def tally(name: str, detail: Dict[str, Any]) -> Dict[str, Any]:
        entry = record["workloads"].setdefault(name, {
            "inputs_digest": detail["inputs_digest"], "runs": [],
            "passes": [], "attempted": 0, "failed": 0, "errors": []})
        entry["attempted"] += detail["attempted"]
        entry["failed"] += detail["failed"]
        entry["errors"] += detail["errors"]
        return entry

    for _ in range(repeat):
        for name in args.workloads:
            detail = _one(name, args, 0)
            entry = tally(name, detail)
            entry["runs"].append({m: v["value"]
                                  for m, v in detail["metrics"].items()})
            entry["passes"].append(detail["passes"])
            entry["last_run"] = {"metrics": detail["metrics"],
                                 "statements": detail["statements"]}
    if traced:
        for name in args.workloads:
            detail = _one(name, args, 1)
            tally(name, detail)["per_layer"] = detail["per_layer"]
    for entry in record["workloads"].values():
        entry["error_share"] = entry["failed"] / max(entry["attempted"], 1)
    return record


def cmd_run(args: argparse.Namespace) -> int:
    record = collect(args, repeat=args.repeat, traced=args.traced)
    OUT.mkdir(exist_ok=True)
    path = args.output or str(
        OUT / f"run-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nresults: {path}")
    wrong = 0
    for name, entry in record["workloads"].items():
        print(f"  {name:<16} error_share {entry['error_share']:.4f} ratio "
              f"({entry['failed']} of {entry['attempted']} operations)")
        wrong += entry["failed"]
    return 1 if wrong else 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def cmd_verify(args: argparse.Namespace) -> int:
    use_source_tree()
    from repro.tpch import REFERENCE, tpch_tables
    changed = 0
    for scale in (TPCH_SMOKE_SCALE, TPCH_SCALE):
        tables = tpch_tables(scale, args.seed)
        golden = {"scale_factor": scale, "seed": args.seed,
                  "source": "repro.tpch.REFERENCE", "digests": {}, "rows": {}}
        for name in sorted(REFERENCE, key=lambda q: int(q[1:])):
            try:
                rows = REFERENCE[name](tables)
            except Exception as exc:  # the oracle itself cannot answer
                print(f"  sf {scale:g} {name:<4} no reference answer "
                      f"({type(exc).__name__}: {exc}); left unpinned")
                continue
            golden["digests"][name] = rows_digest(rows)
            golden["rows"][name] = len(rows)
            print(f"  sf {scale:g} {name:<4} {len(rows):>4} rows "
                  f"{golden['digests'][name][:16]}")
        path = GOLDEN / f"tpch_sf{scale:g}_seed{args.seed}.json"
        before = (json.loads(path.read_text())["digests"]
                  if path.is_file() else {})
        changed += sum(1 for q, d in golden["digests"].items()
                       if before and before.get(q) != d)
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {path}")
    print(f"{changed} digests differ from the files that were there")
    return 0


# ----------------------------------------------------------------------
# compare / selfcheck
# ----------------------------------------------------------------------
def _side(entry: Dict[str, Any], metric: str) -> Tuple[float, float]:
    """(median, quartile spread as a share of it). With three runs or
    more the spread is across runs; with fewer, the within-run
    quartiles recorded beside the last run's median."""
    values = [run[metric] for run in entry["runs"]]
    median = statistics.median(values)
    if len(values) >= 3:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        last = entry["last_run"]["metrics"][metric]
        q1, q3 = last["q1"], last["q3"]
    return median, (q3 - q1) / median if median else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric: both medians, the ratio
    and its base, the bound, and a verdict."""
    for key in ("cpu_count", "seconds", "smoke"):
        if a["meta"][key] != b["meta"][key]:
            raise SystemExit(f"refusing to compare: meta.{key} differs "
                             f"({a['meta'][key]!r} vs {b['meta'][key]!r})")
    gate = {m["name"]: m for m in _contract()["end_to_end"]}
    rows = []
    for name in a["workloads"]:
        ea, eb = a["workloads"][name], b["workloads"].get(name)
        if eb is None or ea["inputs_digest"] != eb["inputs_digest"]:
            raise SystemExit(f"refusing to compare {name}: inputs_digest "
                             "differs (other seed, generator or statements)")
        for metric, unit in END_TO_END.items():
            base, spread = _side(ea, metric)
            other, _ = _side(eb, metric)
            bound = gate[metric]["bound"]
            change = (other - base) / base
            if gate[metric]["better"] == "higher":
                change = -change
            if spread > bound and metric != "setup_s":
                # A's own runs disagree by more than the bound. Set-up
                # is a handful of samples per run; like the driver, its
                # spread is reported and only its median is judged.
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            else:
                verdict = "better" if change < -bound else "within"
            rows.append({
                "workload": name, "metric": metric, "unit": unit,
                "a": base, "b": other, "ratio": other / base,
                "spread_a": spread, "bound": bound, "verdict": verdict,
                "runs": (len(ea["runs"]), len(eb["runs"]))})
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<16}{'metric':<19}{'A (base)':>12}{'B':>12}"
             f"{'B/A':>8}{'spread A':>10}{'bound':>7}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<16}{r['metric']:<19}{r['a']:>12.3f}"
            f"{r['b']:>12.3f}{r['ratio']:>8.3f}{r['spread_a']:>10.1%}"
            f"{r['bound']:>7.0%}  {r['verdict']} ({r['unit']}, "
            f"n={r['runs'][0]}/{r['runs'][1]})")
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.a) as fa, open(args.b) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """A/A: the same checkout measured twice, the sets interleaved so
    that drift of the machine lands on both. A metric that does not
    stay ``within`` its bound here cannot gate anything; demote it to
    the per-layer list rather than widening its bound."""
    sides = [collect(args), collect(args)]
    for _ in range(args.runs - 1):
        for side in sides:
            for name, entry in collect(args)["workloads"].items():
                kept = side["workloads"][name]
                kept["runs"] += entry["runs"]
                kept["passes"] += entry["passes"]
                kept["last_run"] = entry["last_run"]
    OUT.mkdir(exist_ok=True)
    for label, side in zip("AB", sides):
        (OUT / f"selfcheck-{label}.json").write_text(
            json.dumps(side, indent=1))
    rows = compare(*sides)
    print(render(rows))
    loose = [r for r in rows if r["verdict"] != "within"]
    for r in loose:
        print(f"does not hold its bound A/A: {r['workload']} {r['metric']} "
              f"({r['verdict']}, B/A {r['ratio']:.3f}, spread "
              f"{r['spread_a']:.1%})")
    return 1 if loose else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2022)
        p.add_argument("--seconds", type=float,
                       default=_contract()["run_seconds"])
        p.add_argument("--smoke", action="store_true",
                       help="tiny inputs, one pass per workload")
        p.add_argument("--golden-dir", default=None)
        p.add_argument("--workloads", default=",".join(WORKLOADS),
                       type=lambda s: s.split(","))

    run = sub.add_parser("run", help="measure all workloads")
    common(run)
    run.add_argument("--traced", action="store_true")
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument("--output", default=None)
    run.set_defaults(func=cmd_run)
    verify = sub.add_parser("verify", help="regenerate golden digests")
    verify.add_argument("--seed", type=int, default=2022)
    verify.set_defaults(func=cmd_verify)
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=cmd_compare)
    check = sub.add_parser("selfcheck", help="A/A run of this checkout")
    common(check)
    check.add_argument("--runs", type=int, default=3,
                       help="runs per side (three or more, so that the "
                            "spread is taken across runs)")
    check.set_defaults(func=cmd_selfcheck)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
