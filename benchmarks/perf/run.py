"""``BENCHMARK.json``'s command: run one workload, print one JSON line.

    python3 benchmarks/perf/run.py --workload window_probe --seed 1 \
        --seconds 10 --trace 0

Started as a script, so the interpreter put this directory first on
``sys.path``; the repository root belongs there instead, so that
``benchmarks.perf`` imports as the package it is.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.perf.harness import main
    sys.exit(main())
