"""Parallel window execution (paper Sections 3.2, 5.2, 5.5).

The paper's parallelism is *task-based* (morsel-driven [26]): build the
merge sort tree once, share it read-only, fan fixed-size probe tasks
out to a worker pool. This package is the runtime for that:

* :mod:`repro.parallel.scheduler` — per-group strategy choice (serial
  or the probe fan: a window group is one evaluation, so probes are
  the only work that fans out) and the session's one worker pool;
* :mod:`repro.parallel.procpool` / :mod:`repro.parallel.procworker` —
  the supervised process pool and its child side;
* :mod:`repro.parallel.probes` — the probe-kernel handle evaluators
  call through (serial, or fanned to the pool);
* :mod:`repro.parallel.shm` / :mod:`repro.parallel.arena` —
  per-batch and session-lifetime shared-memory segments.

The calibrated cost model that draws the paper's 20-core scalability
figures on any box lives with the benchmarks, in
:mod:`repro.bench.scalability`.
"""
