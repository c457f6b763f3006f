"""Failure-mode suite: the campaign engine under injected faults.

Every scenario asserts the tentpole guarantee: a fault degrades the
campaign to N-1 rows with an explicit failure report, and the surviving
rows are byte-identical to a fault-free run — at ``jobs=1`` and
``jobs=4`` and across chunk sizes.  Faults come from the deterministic
:class:`FaultPlan` facility, so every scenario here is reproducible.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import threading

import pytest

from repro.engine import (
    Campaign,
    CampaignRun,
    Fault,
    FaultPlan,
    SweepSpec,
    run_campaign,
    runner,
)
from repro.engine.faults import GARBAGE_PAYLOAD, InjectedFault
from repro.engine.pool import WorkerPool, shutdown_worker_pool
from repro.launcher import LauncherOptions


@functools.lru_cache(maxsize=1)
def _pool_available() -> bool:
    """Whether this environment can actually fork a worker pool."""
    try:
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            pool.submit(int).result(timeout=60)
        return True
    except Exception:
        return False


def _require_pool() -> None:
    if not _pool_available():
        pytest.skip("process pool unavailable in this environment")


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
    return Campaign(name="faulted", machine=nehalem_2s_x5650(), sweeps=(sweep,))


@pytest.fixture(scope="module")
def clean(campaign):
    """The fault-free reference run."""
    return run_campaign(campaign, jobs=1)


@pytest.fixture(scope="module")
def victim(campaign):
    """A deterministic mid-grid job to poison."""
    return campaign.job_list()[5]


def _without(clean_run: CampaignRun, job_id: str) -> CampaignRun:
    """The clean run with one job's rows dropped — the degraded expectation."""
    return CampaignRun(
        campaign=clean_run.campaign,
        jobs=clean_run.jobs,
        results={k: v for k, v in clean_run.results.items() if k != job_id},
        stats=clean_run.stats,
    )


def _measurement_lines(path) -> list[str]:
    return [
        line
        for line in path.read_text().splitlines()
        if "failure" not in json.loads(line)
    ]


class TestQuarantine:
    """Acceptance criterion: one always-failing job -> N-1 identical rows."""

    @pytest.mark.parametrize(
        "jobs,max_chunk", [(1, None), (4, None), (4, 1), (4, 3), (4, 10_000)]
    )
    def test_poisoned_job_degrades_to_n_minus_1(
        self, campaign, clean, victim, tmp_path, monkeypatch, jobs, max_chunk
    ):
        faults = FaultPlan.for_job(victim.job_id, "raise")
        if max_chunk is not None:
            monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", max_chunk)
        run = run_campaign(
            campaign,
            jobs=jobs,
            faults=faults,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.stats.failed == 1
        assert victim.job_id not in run.results
        assert len(run.rows()) == len(clean.rows()) - 1

        expected = _without(clean, victim.job_id)
        tag = f"{jobs}_{max_chunk}"
        a = expected.write_csv(tmp_path / f"expected_{tag}.csv")
        b = run.write_csv(tmp_path / f"faulted_{tag}.csv")
        assert a.read_bytes() == b.read_bytes()
        aj = expected.write_jsonl(tmp_path / f"expected_{tag}.jsonl")
        bj = run.write_jsonl(tmp_path / f"faulted_{tag}.jsonl")
        assert _measurement_lines(aj) == _measurement_lines(bj)

    def test_failure_surfaced_in_jsonl(self, campaign, victim, tmp_path):
        faults = FaultPlan.for_job(victim.job_id, "raise")
        run = run_campaign(
            campaign, faults=faults, max_retries=0, retry_backoff=0.0
        )
        path = run.write_jsonl(tmp_path / "degraded.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        failures = [r["failure"] for r in records if "failure" in r]
        assert len(failures) == 1
        assert failures[0]["job_id"] == victim.job_id
        assert failures[0]["attempts"] == 1
        assert failures[0]["reason"].startswith("InjectedFault")
        assert failures[0]["kernel"] == victim.kernel_name

    def test_quarantine_reported_via_progress(self, campaign, victim):
        lines: list[str] = []
        run_campaign(
            campaign,
            faults=FaultPlan.for_job(victim.job_id, "raise"),
            max_retries=0,
            retry_backoff=0.0,
            progress=lines.append,
        )
        assert any("quarantined" in line for line in lines)
        assert any("1 failed" in line for line in lines)


class TestRetries:
    def test_transient_fault_retries_to_full_output(
        self, campaign, clean, victim, tmp_path
    ):
        faults = FaultPlan.for_job(victim.job_id, "raise", until_attempt=1)
        run = run_campaign(campaign, faults=faults, retry_backoff=0.0)
        assert not run.failures
        assert run.stats.retries == 1
        a = clean.write_jsonl(tmp_path / "clean.jsonl")
        b = run.write_jsonl(tmp_path / "recovered.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_retries_exhausted_counts_every_attempt(self, campaign, victim):
        run = run_campaign(
            campaign,
            faults=FaultPlan.for_job(victim.job_id, "raise"),
            max_retries=2,
            retry_backoff=0.0,
        )
        assert run.failures[0].attempts == 3  # 1 try + 2 retries
        assert run.stats.retries == 2

    def test_negative_max_retries_rejected(self, campaign):
        with pytest.raises(ValueError, match="max_retries"):
            run_campaign(campaign, max_retries=-1)

    def test_bad_job_timeout_rejected(self, campaign):
        with pytest.raises(ValueError, match="job_timeout"):
            run_campaign(campaign, job_timeout=0.0)


class TestGarbage:
    def test_garbage_payload_quarantined(self, campaign, clean, victim, tmp_path):
        faults = FaultPlan.for_job(victim.job_id, "garbage")
        run = run_campaign(
            campaign, faults=faults, max_retries=1, retry_backoff=0.0
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "invalid-result"
        expected = _without(clean, victim.job_id)
        a = expected.write_csv(tmp_path / "expected.csv")
        b = run.write_csv(tmp_path / "garbage.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_garbage_never_cached(self, campaign, victim, tmp_path):
        faults = FaultPlan.for_job(victim.job_id, "garbage")
        run_campaign(
            campaign,
            faults=faults,
            max_retries=0,
            retry_backoff=0.0,
            cache_dir=tmp_path,
        )
        from repro.engine import open_result_cache

        assert open_result_cache(tmp_path).get(victim.job_id) is None

    def test_corrupt_cache_entry_remeasured(self, campaign, clean, victim, tmp_path):
        from repro.engine import ShardedResultCache

        cache = ShardedResultCache(tmp_path)
        cache.put(victim.job_id, [dict(d) for d in GARBAGE_PAYLOAD])
        run = run_campaign(campaign, cache_dir=tmp_path)
        assert not run.failures
        assert victim.job_id in run.results
        assert run.measurements() == clean.measurements()


class TestTimeouts:
    def test_hung_job_times_out_inline(
        self, campaign, clean, victim, tmp_path, monkeypatch
    ):
        """A timed jobs=1 run stops the hung job by killing its one
        worker process: no thread outlives the run."""
        _require_pool()
        # Single-job chunks: the hung job's chunk is not split and timed
        # out again at every level.
        monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", 1)
        faults = FaultPlan.for_job(victim.job_id, "hang", hang_seconds=5.0)
        threads = threading.enumerate()
        run = run_campaign(
            campaign,
            faults=faults,
            job_timeout=0.2,
            max_retries=0,
            retry_backoff=0.0,
        )
        assert threading.enumerate() == threads
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "timeout"
        expected = _without(clean, victim.job_id)
        a = expected.write_csv(tmp_path / "expected.csv")
        b = run.write_csv(tmp_path / "hung.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_slow_start_recovers_within_budget(self, campaign, victim):
        _require_pool()  # a timed run stops hung jobs in a worker process
        # Hangs shorter than the budget are not failures at all.
        faults = FaultPlan.for_job(victim.job_id, "hang", hang_seconds=0.05)
        run = run_campaign(campaign, faults=faults, job_timeout=30.0)
        assert not run.failures
        assert len(run.results) == run.stats.total_jobs

    def test_hung_chunk_times_out_on_pool(self, campaign, clean, victim, tmp_path):
        _require_pool()
        faults = FaultPlan.for_job(victim.job_id, "hang", hang_seconds=8.0)
        run = run_campaign(
            campaign,
            jobs=2,
            faults=faults,
            job_timeout=0.4,
            max_retries=0,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "timeout"
        expected = _without(clean, victim.job_id)
        a = expected.write_jsonl(tmp_path / "expected.jsonl")
        b = run.write_jsonl(tmp_path / "hung.jsonl")
        assert _measurement_lines(a) == _measurement_lines(b)


class TestWorkerCrash:
    def test_crash_mid_chunk_quarantines_only_the_crasher(
        self, campaign, clean, victim, tmp_path
    ):
        _require_pool()
        faults = FaultPlan.for_job(victim.job_id, "crash")
        run = run_campaign(
            campaign,
            jobs=2,
            faults=faults,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [victim.job_id]
        assert run.failures[0].reason == "worker-crash"
        assert not run.stats.fell_back_inline
        expected = _without(clean, victim.job_id)
        a = expected.write_csv(tmp_path / "expected.csv")
        b = run.write_csv(tmp_path / "crashed.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_transient_crash_redispatches_to_full_output(
        self, campaign, clean, victim, tmp_path
    ):
        _require_pool()
        faults = FaultPlan.for_job(victim.job_id, "crash", until_attempt=1)
        run = run_campaign(
            campaign,
            jobs=2,
            faults=faults,
            max_retries=2,
            retry_backoff=0.0,
        )
        assert not run.failures
        a = clean.write_csv(tmp_path / "clean.csv")
        b = run.write_csv(tmp_path / "recovered.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_pool_that_never_works_falls_back_inline(
        self, campaign, clean, monkeypatch, tmp_path
    ):
        def no_forks(self, worker_id):
            raise OSError("no forks here")

        # A healthy persistent pool from an earlier test would be reused
        # without spawning; drop it so the campaign must fork (and fail).
        shutdown_worker_pool()
        monkeypatch.setattr(WorkerPool, "_spawn_member", no_forks)
        run = run_campaign(campaign, jobs=4)
        assert run.stats.fell_back_inline
        assert not run.failures
        a = clean.write_csv(tmp_path / "clean.csv")
        b = run.write_csv(tmp_path / "inline.csv")
        assert a.read_bytes() == b.read_bytes()


class TestUndecodableReply:
    def test_decode_failure_fails_only_its_chunk(
        self, campaign, clean, monkeypatch, tmp_path
    ):
        """A pool reply that will not decode is charged to its chunk,
        which is re-dispatched; nothing is lost and nothing is
        quarantined."""
        _require_pool()
        decode = runner.unpack_chunk
        calls = []

        def first_call_fails(body):
            calls.append(len(body))
            if len(calls) == 1:
                raise ValueError("undecodable chunk reply: injected")
            return decode(body)

        monkeypatch.setattr(runner, "unpack_chunk", first_call_fails)
        run = run_campaign(campaign, jobs=2, retry_backoff=0.0)
        assert len(calls) > 1
        assert not run.failures
        assert not run.stats.fell_back_inline
        a = clean.write_csv(tmp_path / "clean.csv")
        b = run.write_csv(tmp_path / "redecoded.csv")
        assert a.read_bytes() == b.read_bytes()


class TestAdaptiveFaults:
    """Faults under adaptive stopping behave exactly like fixed-count:
    the failing job quarantines or retries whole, and a job that died
    mid-batch never persists a partial sample set."""

    @pytest.fixture(scope="class")
    def adaptive_campaign(self, campaign):
        sweep = campaign.sweeps[0]
        base = sweep.base.with_(
            rciw_target=0.01,
            min_experiments=3,
            max_experiments=8,
            batch_size=3,
        )
        return Campaign(
            name="faulted_adaptive",
            machine=campaign.machine,
            sweeps=(
                SweepSpec(kernels=sweep.kernels, base=base, axes=sweep.axes),
            ),
        )

    @pytest.fixture(scope="class")
    def adaptive_clean(self, adaptive_campaign):
        return run_campaign(adaptive_campaign, jobs=1)

    @pytest.fixture(scope="class")
    def adaptive_victim(self, adaptive_campaign):
        return adaptive_campaign.job_list()[5]

    def test_raise_quarantines_to_n_minus_1(
        self, adaptive_campaign, adaptive_clean, adaptive_victim, tmp_path
    ):
        run = run_campaign(
            adaptive_campaign,
            faults=FaultPlan.for_job(adaptive_victim.job_id, "raise"),
            max_retries=1,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [adaptive_victim.job_id]
        expected = _without(adaptive_clean, adaptive_victim.job_id)
        a = expected.write_csv(tmp_path / "expected.csv")
        b = run.write_csv(tmp_path / "faulted.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_transient_fault_retries_to_full_output(
        self, adaptive_campaign, adaptive_clean, adaptive_victim, tmp_path
    ):
        faults = FaultPlan.for_job(
            adaptive_victim.job_id, "raise", until_attempt=1
        )
        run = run_campaign(
            adaptive_campaign, faults=faults, retry_backoff=0.0
        )
        assert not run.failures
        assert run.stats.retries == 1
        a = adaptive_clean.write_jsonl(tmp_path / "clean.jsonl")
        b = run.write_jsonl(tmp_path / "recovered.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_hung_adaptive_job_times_out(
        self, adaptive_campaign, adaptive_clean, adaptive_victim, tmp_path,
        monkeypatch,
    ):
        # Single-job chunks: the hung job's chunk is not split and timed
        # out again at every level.
        _require_pool()
        monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", 1)
        faults = FaultPlan.for_job(
            adaptive_victim.job_id, "hang", hang_seconds=5.0
        )
        run = run_campaign(
            adaptive_campaign,
            faults=faults,
            job_timeout=0.2,
            max_retries=0,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [adaptive_victim.job_id]
        assert run.failures[0].reason == "timeout"
        expected = _without(adaptive_clean, adaptive_victim.job_id)
        a = expected.write_csv(tmp_path / "expected.csv")
        b = run.write_csv(tmp_path / "hung.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_crash_mid_chunk_quarantines_only_the_crasher(
        self, adaptive_campaign, adaptive_clean, adaptive_victim, tmp_path
    ):
        _require_pool()
        run = run_campaign(
            adaptive_campaign,
            jobs=2,
            faults=FaultPlan.for_job(adaptive_victim.job_id, "crash"),
            max_retries=1,
            retry_backoff=0.0,
        )
        assert [f.job_id for f in run.failures] == [adaptive_victim.job_id]
        assert run.failures[0].reason == "worker-crash"
        expected = _without(adaptive_clean, adaptive_victim.job_id)
        a = expected.write_csv(tmp_path / "expected.csv")
        b = run.write_csv(tmp_path / "crashed.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_partial_batches_never_persisted(
        self, adaptive_campaign, adaptive_victim, tmp_path
    ):
        """A job that dies mid-sampling leaves no cache entry at all —
        resuming re-measures it from scratch, never from a partial batch."""
        from repro.engine import open_result_cache

        run_campaign(
            adaptive_campaign,
            faults=FaultPlan.for_job(adaptive_victim.job_id, "raise"),
            max_retries=0,
            retry_backoff=0.0,
            cache_dir=tmp_path,
        )
        assert open_result_cache(tmp_path).get(adaptive_victim.job_id) is None

    def test_garbage_adaptive_payload_quarantined(
        self, adaptive_campaign, adaptive_victim, tmp_path
    ):
        run = run_campaign(
            adaptive_campaign,
            faults=FaultPlan.for_job(adaptive_victim.job_id, "garbage"),
            max_retries=0,
            retry_backoff=0.0,
            cache_dir=tmp_path,
        )
        assert run.failures[0].reason == "invalid-result"
        from repro.engine import open_result_cache

        assert open_result_cache(tmp_path).get(adaptive_victim.job_id) is None


class TestFaultPlan:
    def test_random_is_seed_deterministic(self, campaign):
        ids = [job.job_id for job in campaign.job_list()]
        a = FaultPlan.random(ids, seed=7, count=3)
        b = FaultPlan.random(reversed(ids), seed=7, count=3)
        assert set(a.faults) == set(b.faults)
        assert len(a) == 3
        different = FaultPlan.random(ids, seed=8, count=3)
        assert set(a.faults) != set(different.faults)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meltdown")

    def test_until_attempt_windows(self):
        fault = Fault("raise", until_attempt=2)
        assert fault.active(0) and fault.active(1)
        assert not fault.active(2)
        assert Fault("raise").active(99)

    def test_perform_raises_and_passes(self):
        plan = FaultPlan.for_job("j1", "raise", until_attempt=1)
        with pytest.raises(InjectedFault):
            plan.perform("j1", 0)
        assert plan.perform("j1", 1) is None
        assert plan.perform("other", 0) is None

    def test_seeded_random_fault_quarantines_that_job(self, campaign):
        ids = sorted(job.job_id for job in campaign.job_list())
        plan = FaultPlan.random(ids, seed=3, kind="raise")
        (chosen,) = plan.faults
        run = run_campaign(
            campaign, faults=plan, max_retries=0, retry_backoff=0.0
        )
        assert [f.job_id for f in run.failures] == [chosen]
