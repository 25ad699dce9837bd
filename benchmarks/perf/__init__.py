"""The gated benchmark of this repository.

``BENCHMARK.json`` at the repository root names ``run.py`` in this
directory as the one command; ``python -m benchmarks.perf`` is the same
benchmark for people (``run`` / ``verify`` / ``compare`` /
``selfcheck``). See ``README.md`` beside this file.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"


def host_meta() -> Dict[str, Any]:
    """The machine and interpreter a number was taken on; every result
    file carries it, because no number means anything without it."""
    import numpy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def engine_env() -> dict:
    """The environment of a default engine: no ``REPRO_*`` switch set,
    ``src/`` importable. Used for this interpreter and the server child
    alike, so both run the configuration users get out of the box."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    The benchmark measures the program beside it, never an installed
    copy: a checkout without ``src/repro`` is an error, not a fallback.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks.perf: no program to measure at {SRC / 'repro'}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
