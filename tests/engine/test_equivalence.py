"""The equivalence matrix: where and how a job runs cannot change a byte.

One inline fixture per stopping mode, and one cell per variation of it
(a baseline plus one run per changed setting, not the full product).
The executor axis — inline, a timed one-worker pool, a two-worker pool
and a pool that cannot fork — is crossed with every other axis:

- store: an empty store, a warm store (plus a forced re-measure), and a
  store migrated from the legacy single-file JSONL layout;
- chunking: single-job chunks, the default rule, and one chunk per spec
  family on every executor;
- stopping: fixed-count and adaptive;
- fault: none, raise, transient, garbage, hang and crash (crash only
  where a worker process can die in place of the test).

Every cell must write its fixture's CSV and JSONL byte for byte — with
the quarantined job's rows dropped and its failure line appended — and
match the quarantine list and retry count the fault implies.  No cell
may leave a thread behind: a timed run stops a hung job by killing its
worker process, never by abandoning a thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import pytest

from repro import obs
from repro.engine import (
    Campaign,
    CampaignRun,
    FaultPlan,
    JobFailure,
    KernelRef,
    PoolUnusable,
    SweepSpec,
    open_generation_cache,
    open_result_cache,
    run_campaign,
    runner,
)
from repro.engine.pool import WorkerPool, get_worker_pool, shutdown_worker_pool
from repro.engine.runner import _ChunkPlanner
from repro.kernels import loadstore_family
from repro.kernels.reduction import dot_product_spec
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650
from tests.legacy_jsonl import to_legacy

#: executor -> (jobs, job_timeout).  The timed executor's budget is far
#: above any chunk's runtime except where a hang cell shortens it.
EXECUTORS = {
    "inline": (1, None),
    "timed": (1, 60.0),
    "pool": (2, None),
    "no-fork": (2, None),
}

#: Every axis but the executor; the first value is the baseline.
AXES = {
    "store": ("fresh", "warm", "migrated"),
    "chunking": ("default", "single", "one"),
    "stopping": ("fixed", "adaptive"),
    "fault": ("none", "raise", "transient", "garbage", "hang", "crash"),
}


def _one_chunk_per_family(pending, _workers):
    """A planner that sizes every chunk as if one worker took it all."""
    return _ChunkPlanner(pending, 1)


#: fault -> FaultPlan.for_job keywords.  A hang outlasts every chunk's
#: deadline, so it is always a timeout, never a slow start.
FAULTS = {
    "raise": {"kind": "raise"},
    "transient": {"kind": "raise", "until_attempt": 1},
    "garbage": {"kind": "garbage"},
    "hang": {"kind": "hang", "hang_seconds": 5.0},
    "crash": {"kind": "crash"},
}

#: Per-job budget of hang cells.
HANG_TIMEOUT = 0.2

#: Retries every fault cell allows: a quarantined job made two attempts.
MAX_RETRIES = 1


@dataclass(frozen=True)
class Cell:
    executor: str
    store: str = "fresh"
    chunking: str = "default"
    stopping: str = "fixed"
    fault: str = "none"

    @property
    def in_worker(self) -> bool:
        """Whether jobs run in a worker process that a fault may kill."""
        return self.executor in ("timed", "pool")

    def valid(self) -> bool:
        if self.fault == "crash":  # inline, a crash would kill the test
            return self.in_worker
        # An inline run has no deadline: a timed jobs=1 run is "timed".
        return not (self.fault == "hang" and self.executor == "inline")


def _cells():
    for executor in EXECUTORS:
        yield pytest.param(Cell(executor), id=executor)
        for axis, values in AXES.items():
            for value in values[1:]:
                cell = replace(Cell(executor), **{axis: value})
                if cell.valid():
                    yield pytest.param(cell, id=f"{executor}-{value}")


def _campaign(**stopping) -> Campaign:
    """Two spec families x 2 trip counts = 16 jobs (4 + 12)."""
    base = LauncherOptions(
        array_bytes=8 * 1024, trip_count=512, experiments=2, repetitions=2,
        **stopping,
    )
    specs = (
        dot_product_spec(2, unroll=(1, 2)),
        loadstore_family("movss", unroll=(1, 2)),
    )
    return Campaign(
        name="equivalence",
        machine=nehalem_2s_x5650(),
        sweeps=tuple(
            SweepSpec(spec=spec, base=base, axes={"trip_count": (256, 512)})
            for spec in specs
        ),
    )


#: stopping -> campaign.  The adaptive target is tight enough that some
#: jobs converge early and others run to the cap.
CAMPAIGNS = {
    "fixed": _campaign,
    "adaptive": lambda: _campaign(
        rciw_target=0.003, min_experiments=3, max_experiments=16, batch_size=4
    ),
}


def _bytes(run: CampaignRun, directory, tag: str) -> tuple[bytes, bytes]:
    return (
        run.write_csv(directory / f"{tag}.csv").read_bytes(),
        run.write_jsonl(directory / f"{tag}.jsonl").read_bytes(),
    )


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """stopping -> the inline, storeless reference run and its bytes."""
    directory = tmp_path_factory.mktemp("fixtures")
    out = {}
    for stopping, build in CAMPAIGNS.items():
        run = run_campaign(build(), jobs=1)
        out[stopping] = (run, _bytes(run, directory, stopping))
    return out


@pytest.fixture(scope="module")
def victim():
    """A mid-grid job of the larger family: in the two-worker pool's
    first chunk of that family (jobs 4-9), and a single-job chunk in
    every other hang cell."""
    return _campaign().job_list()[5]


def _expected(cell, fixtures, victim, directory):
    """(CSV, JSONL, quarantine list, retries) the cell must reproduce."""
    clean, clean_bytes = fixtures[cell.stopping]
    if cell.fault == "none":
        return (*clean_bytes, [], 0)
    if cell.fault == "transient":
        return (*clean_bytes, [], MAX_RETRIES)
    reason = {
        "raise": f"InjectedFault: injected failure for job {victim.job_id} "
        f"(attempt {MAX_RETRIES})",
        "garbage": "invalid-result",
        "hang": "timeout",
        "crash": "worker-crash",
    }[cell.fault]
    failure = JobFailure(
        victim.job_id, victim.kernel_name, victim.mode, MAX_RETRIES + 1, reason
    )
    degraded = CampaignRun(
        campaign=clean.campaign,
        jobs=clean.jobs,
        results={k: v for k, v in clean.results.items() if k != victim.job_id},
        failures=[failure],
    )
    return (
        *_bytes(degraded, directory, "expected"),
        [(victim.job_id, reason, MAX_RETRIES + 1)],
        MAX_RETRIES,
    )


def _no_forks(self, worker_id):
    raise OSError("no forks here")


def _run(cell, **kwargs) -> CampaignRun:
    """One campaign on the cell's executor, under its own obs session.

    Checks what every run must hold whatever it executed: no thread
    outlives it, spec kernels are deferred exactly when the run uses the
    pool, and only the no-fork executor falls back inline.
    """
    jobs, job_timeout = EXECUTORS[cell.executor]
    if cell.fault == "hang" and "faults" in kwargs:
        job_timeout = HANG_TIMEOUT
    threads = threading.enumerate()
    obs.disable()
    obs.enable()
    try:
        run = run_campaign(
            CAMPAIGNS[cell.stopping](),
            jobs=jobs,
            job_timeout=job_timeout,
            max_retries=MAX_RETRIES,
            retry_backoff=0.0,
            **kwargs,
        )
    finally:
        obs.disable()
        assert threading.enumerate() == threads
    assert isinstance(run.jobs[0].kernel, KernelRef) == (cell.executor != "inline")
    if run.stats.executed or run.stats.failed:
        assert run.stats.fell_back_inline == (cell.executor == "no-fork")
    return run


def _outcome(run, directory, tag):
    return (
        *_bytes(run, directory, tag),
        [(f.job_id, f.reason, f.attempts) for f in run.failures],
        run.stats.retries,
    )


@pytest.mark.parametrize("cell", list(_cells()))
def test_cell_matches_its_fixture(cell, fixtures, victim, tmp_path, monkeypatch):
    # Hang cells use single-job chunks, so a timed-out chunk is not split
    # and re-timed again and again, except on the two-worker pool: its
    # default first chunk of the larger family holds the victim, the one
    # place a multi-job chunk times out.
    chunking = cell.chunking
    if cell.fault == "hang":
        chunking = "default" if cell.executor == "pool" else "single"
    if chunking == "single":
        monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", 1)
    elif chunking == "one":
        monkeypatch.setattr(runner, "_ChunkPlanner", _one_chunk_per_family)
    if cell.executor == "no-fork":
        shutdown_worker_pool()  # a live pool would be reused
        monkeypatch.setattr(WorkerPool, "_spawn_member", _no_forks)
    jobs = EXECUTORS[cell.executor][0]
    # Pool cells reuse a live pool; the store cells' fill runs below
    # start a fresh one.
    pool = get_worker_pool(jobs) if cell.in_worker and cell.store == "fresh" else None
    store = dict(cache_dir=tmp_path / "cache", gen_cache_dir=tmp_path / "gen")
    expected = _expected(cell, fixtures, victim, tmp_path)

    if cell.fault != "none":
        faults = FaultPlan.for_job(victim.job_id, **FAULTS[cell.fault])
        if cell.executor == "no-fork" and cell.fault == "hang":
            # Only a process can be stopped: no workers, no timed run.
            with pytest.raises(PoolUnusable, match="job_timeout"):
                _run(cell, faults=faults, **store)
            return
        epoch = pool.epoch if pool is not None else None
        lines: list[str] = []
        run = _run(cell, faults=faults, progress=lines.append, **store)
        assert _outcome(run, tmp_path, "faulted") == expected
        if cell.fault == "hang":
            # Exactly one cell times out a multi-job chunk and splits it:
            # its chunk timeouts outnumber the victim's timed-out attempts.
            attempts = run.stats.metrics["counters"]["engine.job.timeouts"]
            timeouts = sum("exceeded its" in line for line in lines)
            assert attempts == MAX_RETRIES + 1
            assert (timeouts > attempts) == (cell.executor == "pool")
        if cell.fault in ("hang", "crash"):
            # The rebuild killed the worker in place: the same pool, a
            # new epoch, healthy for the next campaign.
            assert get_worker_pool(jobs) is pool
            assert pool.alive and pool.epoch > epoch
        for job_id, _reason, _attempts in expected[2]:  # never stored
            assert open_result_cache(store["cache_dir"]).get(job_id) is None
        # A clean rerun from the store runs exactly the quarantined job.
        resumed = _run(cell, **store)
        assert resumed.stats.executed == len(expected[2])
        assert _outcome(resumed, tmp_path, "resumed") == (
            *fixtures[cell.stopping][1], [], 0
        )
        return

    if cell.store == "fresh":
        run = _run(cell, **store)
        assert run.stats.executed == run.stats.total_jobs
        assert _outcome(run, tmp_path, "fresh") == expected
        if cell.chunking == "single":
            assert run.stats.chunks == run.stats.total_jobs
        else:
            assert 1 <= run.stats.chunks < run.stats.total_jobs - 3 * jobs
        assert f"chunks={run.stats.chunks}" in repr(run.stats)
        return

    shutdown_worker_pool()
    cold = _run(cell, **store)
    assert _outcome(cold, tmp_path, "cold") == expected
    assert len(open_generation_cache(store["gen_cache_dir"])) == 2  # per spec
    if cell.store == "migrated":
        to_legacy(store["cache_dir"])
        to_legacy(store["gen_cache_dir"])
    warm = _run(cell, **store)
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == warm.stats.total_jobs
    assert warm.stats.metrics["counters"]["gencache.hit"] == 2
    assert _outcome(warm, tmp_path, "warm") == expected
    if cell.store == "migrated":
        for key, name in (("cache_dir", "results"), ("gen_cache_dir", "gencache")):
            legacy = store[key] / f"{name}.jsonl"
            assert not legacy.exists()
            assert legacy.with_name(legacy.name + ".migrated").exists()
    else:
        # A forced re-measure shadows every stored row with the same bytes.
        forced = _run(cell, resume=False, **store)
        assert forced.stats.executed == forced.stats.total_jobs
        assert _outcome(forced, tmp_path, "forced") == expected


def test_adaptive_fixture_varies_its_stopping(fixtures):
    """The adaptive cells mean something only if stopping varies."""
    measurements = fixtures["adaptive"][0].measurements()
    assert len({m.experiments_spent for m in measurements}) > 1
    assert any(m.converged for m in measurements)
    assert not all(m.converged for m in measurements)
