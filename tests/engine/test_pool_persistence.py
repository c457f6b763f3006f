"""The persistent worker pool cannot change a byte or lose a fault.

Workers now outlive ``run_campaign``: the second campaign in a process
reuses the first one's pool.  These tests pin the contracts that make
that safe: (1) the planner sizes chunks from the jobs left to carve;
(2) a reused pool produces byte-identical output to a fresh one, also
warm from a migrated legacy store; (3) every fault-injection behaviour
(crash, hang, garbage, kill/resume) holds when the workers are warm;
(4) the epoch token keeps messages from a killed generation out of the
current one.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import obs
from repro.engine import Campaign, FaultPlan, SweepSpec, run_campaign, runner
from repro.engine.pool import (
    WorkerPool,
    _Worker,
    get_worker_pool,
    shutdown_worker_pool,
)
from repro.engine.runner import _DYNAMIC_MAX_CHUNK, _ChunkPlanner, _gen_group
from repro.launcher import LauncherOptions
from tests.legacy_jsonl import to_legacy


@pytest.fixture(scope="module")
def campaign():
    """8 kernels x 2 trip counts = 16 cheap jobs."""
    from repro.creator import MicroCreator
    from repro.machine import nehalem_2s_x5650
    from repro.spec import load_kernel

    variants = MicroCreator().generate(load_kernel("movaps"))
    sweep = SweepSpec(
        kernels=tuple(variants),
        base=LauncherOptions(array_bytes=16 * 1024, experiments=2, repetitions=2),
        axes={"trip_count": (256, 512)},
    )
    return Campaign(name="pooled", machine=nehalem_2s_x5650(), sweeps=(sweep,))


@pytest.fixture(scope="module")
def serial_bytes(campaign, tmp_path_factory):
    """CSV+JSONL reference bytes from an inline (jobs=1) run."""
    tmp = tmp_path_factory.mktemp("serial")
    run = run_campaign(campaign, jobs=1)
    return (
        run.write_csv(tmp / "ref.csv").read_bytes(),
        run.write_jsonl(tmp / "ref.jsonl").read_bytes(),
    )


def _bytes(run, tmp_path, tag):
    return (
        run.write_csv(tmp_path / f"{tag}.csv").read_bytes(),
        run.write_jsonl(tmp_path / f"{tag}.jsonl").read_bytes(),
    )


def _layout(jobs, workers):
    """Chunk sizes the planner carves from ``jobs`` for ``workers``."""
    planner = _ChunkPlanner(jobs, workers)
    sizes = []
    while not planner.exhausted():
        sizes.append(len(planner.carve().jobs))
    return sizes


class TestChunkPolicyResolution:
    """One chunk policy remains: guided self-scheduling over jobs left."""

    def test_pooled_chunk_count_is_predicted(self, campaign):
        # 16 jobs on 2 workers: ceil(left / 2) each time, 8, 4, 2, 1, 1.
        run = run_campaign(campaign, jobs=2)
        assert run.stats.total_jobs == 16
        assert run.stats.chunks == 5

    def test_run_records_policy(self, campaign, monkeypatch):
        """Inline runs chunk too, and both executors record their chunks."""
        monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", 1)
        for jobs in (1, 2):
            run = run_campaign(campaign, jobs=jobs)
            assert run.stats.chunks > len(campaign.job_list()) // 2


class TestDynamicPlanner:
    """A fresh chunk holds ⌈jobs not yet carved / workers⌉ jobs, clipped
    to ``_DYNAMIC_MAX_CHUNK`` and to the jobs left in its spec family."""

    def test_first_chunk_is_jobs_over_workers(self, campaign):
        jobs = campaign.job_list()
        assert len(_ChunkPlanner(jobs, 2).carve().jobs) == len(jobs) // 2
        assert len(_ChunkPlanner(jobs, 3).carve().jobs) == 6  # ceil(16 / 3)

    def test_chunk_is_jobs_left_over_workers(self, campaign):
        assert _layout(campaign.job_list(), 2) == [8, 4, 2, 1, 1]
        assert _layout(campaign.job_list(), 4) == [4, 3, 3, 2, 1, 1, 1, 1]

    def test_tail_spreads_across_workers(self, campaign):
        """A 254-job campaign on 4 workers: no chunk takes the tail alone,
        and the last chunks are single jobs."""
        jobs = [campaign.job_list()[0]] * 254
        sizes = _layout(jobs, 4)
        assert sum(sizes) == 254
        assert max(sizes) == 64  # ceil(254 / 4)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-4:] == [1, 1, 1, 1]

    def test_chunk_size_is_capped(self, campaign):
        jobs = [campaign.job_list()[0]] * (3 * _DYNAMIC_MAX_CHUNK)
        assert max(_layout(jobs, 1)) == _DYNAMIC_MAX_CHUNK

    def test_last_chunk_takes_what_is_left(self, campaign):
        jobs = campaign.job_list()
        planner = _ChunkPlanner(jobs, 1)
        assert planner.carve().jobs == jobs  # one worker: one chunk takes all
        assert planner.exhausted()

    def test_planner_drains_every_job_once(self, campaign):
        jobs = campaign.job_list()
        planner = _ChunkPlanner(jobs, 2)
        carved = []
        while not planner.exhausted():
            carved.extend(planner.carve().jobs)
        assert carved == jobs
        assert planner.carve() is None

    def test_chunks_never_span_spec_families(self):
        from repro.kernels import loadstore_family
        from repro.kernels.reduction import dot_product_spec
        from repro.machine import nehalem_2s_x5650

        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512, experiments=2)
        two_specs = Campaign(
            name="two-families",
            machine=nehalem_2s_x5650(),
            sweeps=(
                SweepSpec(spec=dot_product_spec(2, unroll=(1, 2)), base=base),
                SweepSpec(spec=loadstore_family("movss", unroll=(1, 2)), base=base),
            ),
        )
        jobs = two_specs.job_list(defer=True)
        assert len({_gen_group(j) for j in jobs}) == 2
        planner = _ChunkPlanner(jobs, 1)  # one worker: the largest chunks
        while not planner.exhausted():
            unit = planner.carve()
            assert len({_gen_group(j) for j in unit.jobs}) == 1

    def test_more_workers_than_jobs(self, campaign):
        small = Campaign(
            name="small",
            machine=campaign.machine,
            sweeps=(
                SweepSpec(
                    kernels=campaign.sweeps[0].kernels[:3],
                    base=campaign.sweeps[0].base.with_(trip_count=256),
                ),
            ),
        )
        serial = run_campaign(small, jobs=1)
        wide = run_campaign(small, jobs=4)
        # ceil(3 / 4), ceil(2 / 4), ceil(1 / 4): three one-job chunks,
        # one per worker, instead of one worker holding all three.
        assert wide.stats.chunks == 3
        assert wide.measurements() == serial.measurements()


class TestPoolReuse:
    @pytest.mark.parametrize(
        "max_chunk",
        (pytest.param(None, id="default"), pytest.param(1, id="single-job")),
    )
    @pytest.mark.parametrize("origin", ("jsonl", "sharded"))
    def test_fresh_and_reused_pools_byte_identical(
        self, campaign, serial_bytes, tmp_path, monkeypatch, max_chunk, origin,
    ):
        if max_chunk is not None:
            monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", max_chunk)
        kwargs = dict(jobs=2)
        shutdown_worker_pool()
        fresh = run_campaign(
            campaign, cache_dir=tmp_path / "fresh", **kwargs
        )
        # No shutdown in between: this run must reuse the live pool.
        reused = run_campaign(
            campaign, cache_dir=tmp_path / "reused", **kwargs
        )
        tag = f"{origin}-{max_chunk}"
        assert _bytes(fresh, tmp_path, f"fresh-{tag}") == serial_bytes
        assert _bytes(reused, tmp_path, f"reused-{tag}") == serial_bytes
        # Both runs filled their caches completely: a warm rerun executes
        # nothing and still matches, also from a store migrated out of a
        # legacy JSONL cache.
        if origin == "jsonl":
            to_legacy(tmp_path / "reused")
        warm = run_campaign(
            campaign, cache_dir=tmp_path / "reused", **kwargs
        )
        assert warm.stats.executed == 0
        assert _bytes(warm, tmp_path, f"warm-{tag}") == serial_bytes

    def test_second_campaign_reuses_workers(self, campaign):
        shutdown_worker_pool()
        obs.enable()
        try:
            run_campaign(campaign, jobs=2)
            first = get_worker_pool(2)
            run_campaign(campaign, jobs=2)
            assert get_worker_pool(2) is first
            counters = obs.metrics_snapshot()["counters"]
            assert counters["engine.pool.spawn"] == 1
            assert counters["engine.pool.reuse"] >= 2
            assert obs.metrics_snapshot()["histograms"][
                "engine.job.duration_ms"
            ]["count"] >= 2 * len(campaign.job_list())
        finally:
            obs.disable()

    def test_different_worker_count_respawns(self, campaign):
        shutdown_worker_pool()
        run_campaign(campaign, jobs=2)
        first = get_worker_pool(2)
        run_campaign(campaign, jobs=3)
        replacement = get_worker_pool(3)
        assert replacement is not first
        assert replacement.workers == 3


class TestFaultsUnderWarmPool:
    """The fault matrix holds when the pool predates the campaign."""

    @pytest.fixture(autouse=True)
    def warm_pool(self, campaign):
        """Every test here starts with a healthy, already-used pool."""
        run_campaign(campaign, jobs=2)
        yield

    @pytest.fixture()
    def victim(self, campaign):
        return campaign.job_list()[5]

    def test_crash_quarantines_only_the_crasher(
        self, campaign, serial_bytes, victim, tmp_path
    ):
        run = run_campaign(
            campaign,
            jobs=2,
            faults=FaultPlan.for_job(victim.job_id, "crash"),
            max_retries=1,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "worker-crash"
        assert not run.stats.fell_back_inline

    def test_transient_crash_recovers_to_identical_bytes(
        self, campaign, serial_bytes, victim, tmp_path
    ):
        run = run_campaign(
            campaign,
            jobs=2,
            faults=FaultPlan.for_job(victim.job_id, "crash", until_attempt=1),
            max_retries=2,
            retry_backoff=0.0,
        )
        assert not run.failures
        assert _bytes(run, tmp_path, "recovered") == serial_bytes
        # The rebuild advanced the shared pool's epoch; the pool is
        # healthy again and the *next* campaign still reuses it.
        pool = get_worker_pool(2)
        assert pool.epoch >= 1
        assert pool.alive

    def test_garbage_is_quarantined_not_stored(
        self, campaign, victim, tmp_path
    ):
        run = run_campaign(
            campaign,
            jobs=2,
            faults=FaultPlan.for_job(victim.job_id, "garbage"),
            max_retries=0,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "invalid-result"

    def test_hang_times_out_and_pool_recovers(
        self, campaign, serial_bytes, victim, tmp_path
    ):
        run = run_campaign(
            campaign,
            jobs=2,
            faults=FaultPlan.for_job(victim.job_id, "hang", hang_seconds=8.0),
            max_retries=0,
            retry_backoff=0.0,
            job_timeout=0.4,
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "timeout"
        clean = run_campaign(campaign, jobs=2)
        assert not clean.failures

    def test_kill_and_resume_completes_the_campaign(
        self, campaign, serial_bytes, victim, tmp_path
    ):
        """A campaign cut short resumes from its cache on a warm pool."""
        interrupted = run_campaign(
            campaign,
            jobs=2,
            cache_dir=tmp_path / "cache",
            faults=FaultPlan.for_job(victim.job_id, "crash"),
            max_retries=0,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in interrupted.failures] == [victim.job_id]
        resumed = run_campaign(
            campaign, jobs=2, cache_dir=tmp_path / "cache", resume=True
        )
        assert not resumed.failures
        assert resumed.stats.executed == 1  # only the missing job reran
        assert _bytes(resumed, tmp_path, "resumed") == serial_bytes


class _FakeProcess:
    def is_alive(self):
        return True


class TestEpochStaleness:
    def test_stale_epoch_reply_is_dropped(self):
        pool = WorkerPool(1)  # never started: members injected by hand
        parent_conn, child_conn = multiprocessing.Pipe()
        member = _Worker(_FakeProcess(), parent_conn)
        member.task_id = 7
        pool._members = [member]
        pool.epoch = 3
        obs.enable()
        try:
            child_conn.send(("ok", 2, 7, b"stale-frame"))
            assert pool.poll(1.0) == []
            # The stale reply must not retire the in-flight task.
            assert pool.task_of(0) == 7
            counters = obs.metrics_snapshot()["counters"]
            assert counters["engine.pool.stale_dropped"] == 1
            child_conn.send(("ok", 3, 7, b"current-frame"))
            assert pool.poll(1.0) == [("ok", 0, 7, b"current-frame")]
            assert pool.task_of(0) is None
        finally:
            obs.disable()

    def test_malformed_reply_is_ignored(self):
        pool = WorkerPool(1)
        parent_conn, child_conn = multiprocessing.Pipe()
        member = _Worker(_FakeProcess(), parent_conn)
        member.task_id = 1
        pool._members = [member]
        child_conn.send("not-a-tuple")
        assert pool.poll(1.0) == []
        assert pool.task_of(0) == 1
