"""Smoke test of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/perf

Drives ``run --smoke`` (tiny inputs, one pass per workload) end to end,
shows that a wrong result makes ``run`` exit non-zero with
``error_share`` > 0, that a run leaves no process behind, and pins
``BENCHMARK.json`` to the code.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.perf.__main__ import compare  # noqa: E402
from benchmarks.perf.harness import END_TO_END  # noqa: E402
from benchmarks.perf.layers import PER_LAYER  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402


def _perf(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "benchmarks.perf", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_the_code():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in contract["end_to_end"]}
            == END_TO_END)
    assert ([(m["name"], m["unit"], m["better"])
             for m in contract["per_layer"]]
            == [(n, unit, better)
                for n, (unit, better, _moves) in PER_LAYER.items()])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_smoke_run_measures_and_checks_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    done = _perf("run", "--smoke", "--traced", "--output", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text())
    assert record["meta"]["cpu_count"] >= 1
    assert set(record["workloads"]) == set(WORKLOADS)
    for name, entry in record["workloads"].items():
        assert entry["error_share"] == 0 and entry["attempted"] > 0, name
        assert len(entry["inputs_digest"]) == 64
        assert all(entry["runs"][0][m] > 0 for m in END_TO_END), name
        layers = entry["per_layer"]["metrics"]
        assert set(layers) == set(PER_LAYER), name
        assert layers["obs.trace_overhead_ratio"] > 0
    layers = {n: e["per_layer"]["metrics"]
              for n, e in record["workloads"].items()}
    # The workloads separate: probe is all reuse, build is all build,
    # and the relational suite never enters the window operator.
    assert layers["window_probe"]["cache.hit_ratio"] == 1.0
    assert layers["window_probe"]["cache.structure_builds"] == 0
    assert layers["window_build"]["cache.hit_ratio"] == 0.0
    assert layers["window_build"]["window.structure_build_ms"] > 0
    assert layers["tpch_relational"]["window.group_ms"] == 0
    assert layers["tpch_relational"]["sql.join_probe_ms"] > 0


def test_wrong_result_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "benchmarks" / "perf" / "golden", golden)
    path = golden / "tpch_sf0.002_seed2022.json"
    data = json.loads(path.read_text())
    data["digests"]["q6"] = "0" * 64
    path.write_text(json.dumps(data))
    out = tmp_path / "wrong.json"
    done = _perf("run", "--smoke", "--workloads", "tpch_relational",
                 "--golden-dir", str(golden), "--output", str(out))
    assert done.returncode == 1, done.stdout + done.stderr
    entry = json.loads(out.read_text())["workloads"]["tpch_relational"]
    assert entry["error_share"] > 0
    assert any("q6" in e for e in entry["errors"])


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own directory: there is
    nothing to measure, so no result line and a non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf",
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "window_probe", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout


#: Runs a command as its child subreaper: a process the command leaves
#: behind is handed to this script, which prints it.
_WATCH = """
import ctypes, subprocess, sys
sys.path.insert(0, sys.argv[1])
from benchmarks.perf.harness import child_pids
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
done = subprocess.run(sys.argv[2:], stdout=subprocess.DEVNULL)
print(done.returncode, child_pids())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs /proc and prctl")
def test_a_run_leaves_no_process_behind():
    """The traced run's process-executor probe starts multiprocessing's
    resource tracker; it must have ended before the run has."""
    done = subprocess.run(
        [sys.executable, "-c", _WATCH, str(ROOT), sys.executable,
         "benchmarks/perf/run.py", "--workload", "window_probe", "--seed",
         "1", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.stdout.split(None, 1) == ["0", "[]\n"], done.stderr


def _record(pass_ms, digest="d"):
    runs = [dict.fromkeys(END_TO_END, 100.0) for _ in pass_ms]
    for run, value in zip(runs, pass_ms):
        run["pass_ms"] = value
    return {"meta": {"cpu_count": 2, "seconds": 10, "smoke": False},
            "workloads": {"window_probe": {"inputs_digest": digest,
                                           "runs": runs}}}


def test_compare_verdicts_and_refusals():
    base = _record([100.0, 101.0, 99.0, 100.0])

    def verdict(other):
        rows = compare(base, other)
        return next(r for r in rows if r["metric"] == "pass_ms")["verdict"]

    assert verdict(copy.deepcopy(base)) == "within"
    assert verdict(_record([130.0, 131.0, 129.0, 130.0])) == "worse"
    assert verdict(_record([70.0, 71.0, 69.0, 70.0])) == "better"
    noisy = _record([60.0, 100.0, 140.0, 180.0])
    assert next(r for r in compare(noisy, base)
                if r["metric"] == "pass_ms")["verdict"] == "unresolved"
    with pytest.raises(SystemExit):
        compare(base, _record([100.0] * 4, digest="other"))
    other_box = copy.deepcopy(base)
    other_box["meta"]["cpu_count"] = 64
    with pytest.raises(SystemExit):
        compare(base, other_box)
