"""One dispatch loop, three executors: faults land identically.

Inline runs (a timed one on a one-worker pool), a two-worker pool and
a pool that cannot fork (whose untimed run falls back to the in-process
executor inside the same loop) all go through the same retry, split,
quarantine and deadline logic.  So for every fault kind the quarantine
list (job, reason, attempts), the retry count and the surviving CSV
bytes must be identical whichever executor ran the jobs.  A timed run
that cannot fork does not run at all: only a process can be stopped.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    Campaign,
    FaultPlan,
    PoolUnusable,
    SweepSpec,
    run_campaign,
    runner,
)
from repro.engine.pool import WorkerPool, shutdown_worker_pool
from repro.launcher import LauncherOptions

EXECUTORS = ("inline", "pool", "no-fork")

#: fault kind -> (FaultPlan.for_job keywords, run_campaign keywords)
FAULTS = {
    "raise": ({"kind": "raise"}, {}),
    "transient": ({"kind": "raise", "until_attempt": 1}, {}),
    "garbage": ({"kind": "garbage"}, {}),
    # Longer than any chunk's deadline (16 jobs x 0.1 s + slack), so the
    # hang is always a timeout, never a slow start.
    "hang": ({"kind": "hang", "hang_seconds": 4.0}, {"job_timeout": 0.1}),
}


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
    return Campaign(name="executors", machine=nehalem_2s_x5650(), sweeps=(sweep,))


@pytest.fixture(scope="module")
def victim(campaign):
    return campaign.job_list()[5]


def _no_forks(self, worker_id):
    raise OSError("no forks here")


def _run(campaign, executor, monkeypatch, **kwargs):
    with monkeypatch.context() as patch:
        if executor == "no-fork":
            shutdown_worker_pool()  # a live pool would be reused
            patch.setattr(WorkerPool, "_spawn_member", _no_forks)
        run = run_campaign(
            campaign,
            jobs=1 if executor == "inline" else 2,
            max_retries=1,
            retry_backoff=0.0,
            **kwargs,
        )
    assert run.stats.fell_back_inline == (executor == "no-fork")
    return run


@pytest.mark.parametrize("fault", FAULTS)
def test_executors_agree_under_faults(campaign, victim, fault, monkeypatch, tmp_path):
    plan_kwargs, run_kwargs = FAULTS[fault]
    faults = FaultPlan.for_job(victim.job_id, **plan_kwargs)
    if fault == "hang":
        # Single-job chunks: a timed-out chunk is not split and re-timed.
        monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", 1)
    outcomes = {}
    for executor in EXECUTORS:
        if executor == "no-fork" and "job_timeout" in run_kwargs:
            with pytest.raises(PoolUnusable, match="job_timeout"):
                _run(campaign, executor, monkeypatch, faults=faults, **run_kwargs)
            continue
        run = _run(campaign, executor, monkeypatch, faults=faults, **run_kwargs)
        outcomes[executor] = (
            [(f.job_id, f.reason, f.attempts) for f in run.failures],
            run.stats.retries,
            run.write_csv(tmp_path / f"{executor}.csv").read_bytes(),
        )
    assert all(outcome == outcomes["inline"] for outcome in outcomes.values())
    failures, retries, _csv = outcomes["inline"]
    assert retries == 1
    if fault == "transient":
        assert failures == []
    else:
        reason = {"garbage": "invalid-result", "hang": "timeout"}.get(fault)
        assert [(job_id, attempts) for job_id, _, attempts in failures] == [
            (victim.job_id, 2)
        ]
        assert reason is None or failures[0][1] == reason


def test_raising_job_in_an_inline_chunk_quarantines_only_itself(
    campaign, victim, monkeypatch, tmp_path
):
    """The chunk the raise fails is split, and its other jobs still land."""
    clean = run_campaign(campaign, jobs=1)
    # One worker: the planner carves the whole 16-job grid as one chunk.
    run = _run(
        campaign,
        "inline",
        monkeypatch,
        faults=FaultPlan.for_job(victim.job_id, "raise"),
    )
    assert [f.job_id for f in run.failures] == [victim.job_id]
    assert set(run.results) == set(clean.results) - {victim.job_id}
    for job_id, measurements in run.results.items():
        assert measurements == clean.results[job_id]
