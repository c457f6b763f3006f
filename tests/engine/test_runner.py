"""Scheduler tests: parallel determinism, caching, resume semantics.

The campaign here is the acceptance-criteria grid: >= 64 jobs, executed
at ``jobs=1`` and ``jobs=4``, which must produce byte-identical output;
a second run against the same cache must execute nothing.
"""

import pytest

from repro.engine import Campaign, SweepSpec, run_campaign
from repro.launcher import LauncherOptions


@pytest.fixture(scope="module")
def grid_campaign(request):
    """8 kernels x 4 trip counts x 2 repetition levels = 64 jobs."""
    from repro.creator import MicroCreator
    from repro.machine import nehalem_2s_x5650
    from repro.spec import load_kernel

    variants = MicroCreator().generate(load_kernel("movaps"))
    sweep = SweepSpec(
        kernels=tuple(variants),
        base=LauncherOptions(array_bytes=16 * 1024, experiments=2, repetitions=2),
        axes={"trip_count": (256, 512, 1024, 2048), "repetitions": (2, 4)},
    )
    return Campaign(name="grid64", machine=nehalem_2s_x5650(), sweeps=(sweep,))


class TestParallelDeterminism:
    def test_jobs4_byte_identical_to_jobs1(self, grid_campaign, tmp_path):
        serial = run_campaign(grid_campaign, jobs=1)
        parallel = run_campaign(grid_campaign, jobs=4)
        assert serial.stats.total_jobs >= 64
        a = serial.write_csv(tmp_path / "serial.csv")
        b = parallel.write_csv(tmp_path / "parallel.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_identical_too(self, grid_campaign, tmp_path):
        serial = run_campaign(grid_campaign, jobs=1)
        parallel = run_campaign(grid_campaign, jobs=4)
        a = serial.write_jsonl(tmp_path / "serial.jsonl")
        b = parallel.write_jsonl(tmp_path / "parallel.jsonl")
        assert a.read_bytes() == b.read_bytes()


class TestCaching:
    def test_second_run_executes_nothing(self, grid_campaign, tmp_path):
        cold = run_campaign(grid_campaign, cache_dir=tmp_path)
        warm = run_campaign(grid_campaign, cache_dir=tmp_path)
        assert cold.stats.executed == cold.stats.total_jobs
        assert cold.stats.cache_hits == 0
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == warm.stats.total_jobs
        assert warm.stats.cache_hit_rate == 1.0

    def test_cached_results_identical(self, grid_campaign, tmp_path):
        cold = run_campaign(grid_campaign, cache_dir=tmp_path)
        warm = run_campaign(grid_campaign, cache_dir=tmp_path)
        assert cold.measurements() == warm.measurements()

    def test_resume_false_forces_reexecution(self, grid_campaign, tmp_path):
        run_campaign(grid_campaign, cache_dir=tmp_path)
        forced = run_campaign(grid_campaign, cache_dir=tmp_path, resume=False)
        assert forced.stats.executed == forced.stats.total_jobs
        assert forced.stats.cache_hits == 0

    def test_partial_cache_runs_only_missing(self, grid_campaign, tmp_path):
        all_jobs = grid_campaign.job_list()
        half = run_campaign(
            Campaign(
                name="half",
                machine=grid_campaign.machine,
                sweeps=(
                    SweepSpec(
                        kernels=tuple(
                            {j.kernel_name: j.kernel for j in all_jobs[:32]}.values()
                        ),
                        base=all_jobs[0].options,
                    ),
                ),
            ),
            cache_dir=tmp_path,
        )
        assert half.stats.executed > 0
        full = run_campaign(grid_campaign, cache_dir=tmp_path)
        overlap = sum(1 for j in all_jobs if j.job_id in half.results)
        assert full.stats.cache_hits == overlap
        assert full.stats.executed == full.stats.total_jobs - overlap


class TestRunResults:
    def test_rows_in_campaign_order(self, grid_campaign):
        run = run_campaign(grid_campaign)
        jobs = [job.index for job, _ in run.rows()]
        assert jobs == sorted(jobs)

    def test_grouped_by_axis_tag(self, grid_campaign):
        run = run_campaign(grid_campaign)
        groups = run.grouped("trip_count")
        assert set(groups) == {256, 512, 1024, 2048}
        total = sum(len(v) for v in groups.values())
        assert total == len(run.rows())

    def test_progress_callback_called(self, grid_campaign):
        lines = []
        run_campaign(grid_campaign, progress=lines.append)
        assert any("64 jobs" in line for line in lines)
        assert any("done" in line for line in lines)

    def test_hit_rate_defined_before_any_jobs(self):
        from repro.engine import RunStats

        assert RunStats().cache_hit_rate == 0.0

    @pytest.mark.parametrize(
        "removed",
        [
            {"chunk_target_ms": 1.0},
            {"chunk_size": 3},
            {"chunk_policy": "static"},
            {"generation": "parent"},
        ],
        ids=lambda removed: next(iter(removed)),
    )
    def test_removed_keywords_are_rejected(self, grid_campaign, removed):
        """Chunk sizing and generation follow ``jobs``; no knob is left."""
        with pytest.raises(TypeError):
            run_campaign(grid_campaign, jobs=2, **removed)


class TestModeExecution:
    def test_forked_and_openmp_jobs(self, nehalem, movaps_u8):
        base = LauncherOptions(
            array_bytes=16 * 1024, trip_count=512, experiments=2, repetitions=2
        )
        campaign = Campaign(
            name="modes",
            machine=nehalem,
            sweeps=(
                SweepSpec(kernels=(movaps_u8,), base=base.with_(n_cores=2), mode="forked"),
                SweepSpec(kernels=(movaps_u8,), base=base.with_(omp_threads=2), mode="openmp"),
                SweepSpec(
                    kernels=(movaps_u8,),
                    base=base.with_(alignment_min=0, alignment_max=128, alignment_step=64),
                    mode="alignment_sweep",
                ),
            ),
        )
        run = run_campaign(campaign)
        by_mode = run.grouped("")  # no tag: everything under None
        assert run.stats.total_jobs == 3
        per_job = list(run.per_job())
        assert len(per_job[0][1]) == 2  # forked: one measurement per core
        assert len(per_job[1][1]) == 1  # openmp: one aggregate measurement
        assert len(per_job[2][1]) >= 2  # sweep: one per alignment config
        assert by_mode  # smoke: grouped() tolerates missing tags
