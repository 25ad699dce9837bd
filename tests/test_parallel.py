"""Task-parallel cost model: scheduling laws and calibrated shapes."""

import pytest

from repro.bench.scalability import (
    ALGORITHMS,
    MachineModel,
    WindowWorkload,
    algorithm_tasks,
    crossover_point,
    makespan,
    simulate,
    summary_row,
    throughput_series,
)


class TestMakespan:
    def test_empty(self):
        assert makespan([], 4) == 0.0

    def test_single_worker_is_sum(self):
        assert makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_perfect_split(self):
        assert makespan([1.0] * 8, 4) == pytest.approx(2.0)

    def test_bounded_below_by_longest_task(self):
        assert makespan([10.0, 1.0, 1.0], 8) == 10.0

    def test_never_better_than_ideal(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0]
        for workers in (1, 2, 3, 8):
            assert makespan(costs, workers) >= sum(costs) / workers - 1e-12

    def test_more_workers_never_slower(self):
        costs = list(range(1, 20))
        times = [makespan(costs, w) for w in (1, 2, 4, 8, 16)]
        assert times == sorted(times, reverse=True)


class TestCostModels:
    def test_all_algorithms_produce_tasks(self):
        workload = WindowWorkload(n=100_000, frame_size=1_000)
        for name in ALGORITHMS:
            build, tasks = algorithm_tasks(name, workload)
            assert build >= 0
            assert tasks and all(t > 0 for t in tasks)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            algorithm_tasks("quantum", WindowWorkload(10, 5))

    def test_serial_mode_single_task(self):
        workload = WindowWorkload(n=100_000, frame_size=500)
        _, tasks = algorithm_tasks("incremental_median", workload,
                                   serial=True)
        assert len(tasks) == 1

    def test_task_count_follows_task_size(self):
        workload = WindowWorkload(n=100_000, frame_size=500)
        _, tasks = algorithm_tasks("mst", workload, task_size=20_000)
        assert len(tasks) == 5


class TestCalibratedShapes:
    """The model must land on the paper's published operating points."""

    def test_mst_peak_near_9_5m(self):
        sim = simulate("mst", WindowWorkload(n=6_000_000, frame_size=1000))
        assert 8e6 < sim.throughput(6_000_000) < 11e6

    def test_mst_flat_in_frame_size(self):
        tps = [simulate("mst", WindowWorkload(6_000_000, f)).throughput(
            6_000_000) for f in (10, 1_000, 100_000, 6_000_000)]
        assert max(tps) / min(tps) < 1.05

    @pytest.mark.parametrize("algorithm,paper_frame", [
        ("naive_median", 130),
        ("incremental_median", 700),
        ("ostree_median", 20_000),
        ("incremental_distinct", 50_000),
    ])
    def test_crossovers_near_paper(self, algorithm, paper_frame):
        n = 6_000_000
        # ascending frames: the competitor wins small frames, the MST
        # overtakes at the crossover
        frames = [int(paper_frame * factor)
                  for factor in (0.25, 0.5, 0.8, 1.3, 2, 4)]
        found = crossover_point(
            algorithm, "mst",
            [WindowWorkload(n=n, frame_size=f) for f in frames])
        assert found is not None, f"{algorithm} never crossed"
        assert paper_frame / 2 <= found.frame_size <= paper_frame * 2

    def test_task_parallelism_hurts_incremental(self):
        """Section 3.2: under task-based parallelism the incremental
        distinct count re-builds its hash table at every 20k-tuple task
        boundary, inflating total work well past the serial run."""
        workload = WindowWorkload(n=1_000_000, frame_size=100_000)
        parallel = simulate("incremental_distinct", workload)
        serial = simulate("incremental_distinct", workload, serial=True)
        assert parallel.total_work_ops > serial.total_work_ops * 2

    def test_mst_embarrassingly_parallel(self):
        workload = WindowWorkload(n=2_000_000, frame_size=10_000)
        result = simulate("mst", workload)
        assert result.parallel_efficiency > 0.8

    def test_nonmonotonic_delta_degrades_incremental_only(self):
        smooth = WindowWorkload(n=1_000_000, frame_size=500, avg_delta=2)
        jumpy = WindowWorkload(n=1_000_000, frame_size=500, avg_delta=300)
        inc_smooth = simulate("incremental_median", smooth)
        inc_jumpy = simulate("incremental_median", jumpy)
        assert inc_jumpy.wall_seconds > inc_smooth.wall_seconds * 10
        mst_smooth = simulate("mst", smooth)
        mst_jumpy = simulate("mst", jumpy)
        assert mst_jumpy.wall_seconds == mst_smooth.wall_seconds

    def test_incremental_falls_below_naive_at_high_delta(self):
        """The Figure 12 endgame."""
        workload = WindowWorkload(n=1_000_000, frame_size=500,
                                  avg_delta=330)
        inc = simulate("incremental_median", workload)
        naive = simulate("naive_median", workload)
        assert inc.wall_seconds > naive.wall_seconds


class TestHelpers:
    def test_throughput_series(self):
        series = throughput_series(
            "mst", [WindowWorkload(n, n * 0.05)
                    for n in (50_000, 800_000)])
        assert len(series) == 2
        assert series[1] > series[0]

    def test_summary_row(self):
        row = summary_row("mst", WindowWorkload(n=100_000,
                                                frame_size=5_000))
        assert row["parallel_tuples_per_s"] > row["serial_tuples_per_s"]

    def test_machine_model_scaling(self):
        workload = WindowWorkload(n=1_000_000, frame_size=1_000)
        few = simulate("mst", workload, machine=MachineModel(workers=4))
        many = simulate("mst", workload, machine=MachineModel(workers=40))
        assert many.throughput(1_000_000) > few.throughput(1_000_000) * 4
