"""Dispatch throughput: persistent worker pool vs per-campaign executor.

Times the *dispatch machinery* of a 2000+-job small-kernel campaign —
the characterization-style workload (hundreds of distinct variants,
a few configurations each) that per-campaign pool churn penalizes most:

- **oracle** replicates the pre-persistent-pool path: a fresh
  ``ProcessPoolExecutor`` per campaign, static chunks (a few per worker,
  at most 32 jobs) through ``run_chunk`` futures.  Every campaign
  re-pays worker spawn and re-warms ``_SIM_MEMO`` (kernel-model
  normalization) from nothing.
- **fresh** runs the scheduler (``_dispatch`` on the shared
  :class:`WorkerPool`, pickled chunk replies, dynamic chunking) with no
  pool alive — the first campaign of a process.
- **warm** repeats the same campaign back-to-back: the pool and its
  worker-side memos persist, so the second campaign pays near-zero
  spawn cost.

Job *bodies* are stubbed to isolate dispatch: the stub still routes
through ``_sim_kernel_for`` (kernel-ref resolution + model normalization,
the worker-side state a fresh pool must rebuild) but skips the launcher's
measurement simulation, which is identical in both paths and benchmarked
in ``BENCH_measurement.json``.  The stub is installed before workers
fork, so both executors inherit it equally.

Also times per-row ``ShardedResultCache.put`` against the chunk-boundary
``put_many`` batch path.

Asserts warm dispatch is >= 3x oracle throughput and that the warm
campaign beats the fresh one (pool reuse must pay); writes
``BENCH_dispatch.json`` (repo root) for the CI regression gate — see
``benchmarks/check_regression.py``.  Scale knobs:
``DISPATCH_BENCH_LABELS`` (configurations per variant) and
``DISPATCH_BENCH_WORKERS``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import defaultdict
from concurrent import futures as cf
from pathlib import Path

import pytest

from repro.engine import Campaign, SweepSpec
from repro.engine import runner
from repro.engine.pool import shutdown_worker_pool
from repro.engine.runner import (
    RunStats,
    _dispatch,
    run_chunk,
)
from repro.engine.store import open_result_cache
from repro.kernels import loadstore_family
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650

#: Configurations measured per variant; 254 variants x 8 = 2032 jobs.
N_LABELS = int(os.environ.get("DISPATCH_BENCH_LABELS", "8"))
WORKERS = int(os.environ.get("DISPATCH_BENCH_WORKERS", "4"))
RUNS = 3
MIN_SPEEDUP = 3.0
BATCH_ROWS = 2_000
CHUNK_ROWS = 256

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dispatch.json"


def _oracle_chunk(n_jobs: int) -> int:
    """The pre-persistent-pool static chunk: ~4 per worker, capped at 32."""
    return max(1, min(32, -(-n_jobs // (WORKERS * 4))))


def _campaign() -> Campaign:
    """A many-small-jobs campaign: one (Load|Store)+ family, unroll 1..7
    (254 distinct variants), ``N_LABELS`` labelled configurations each."""
    spec = loadstore_family("movaps", unroll=(1, 7))
    base = LauncherOptions(
        array_bytes=4096, trip_count=16, experiments=1, repetitions=1
    )
    sweep = SweepSpec(
        spec=spec,
        base=base,
        axes={"label": tuple(f"L{i:05d}" for i in range(N_LABELS))},
    )
    return Campaign(
        name="dispatch-bench", machine=nehalem_2s_x5650(), sweeps=(sweep,)
    )


def _stub_run_job(launcher, job, faults=None, attempt=0):
    """A job body with the dispatch-relevant work only.

    Resolving and normalizing the kernel model is worker-side state a
    fresh pool rebuilds per campaign — that stays.  The launcher's
    measurement loop (pure simulation, identical in both paths) is
    replaced by a canned payload of realistic shape.
    """
    runner._sim_kernel_for(job)
    return [
        {
            "kernel_name": job.kernel_name,
            "cycles_per_iteration": 4.25,
            "experiment_tsc": [1.5, 2.25, 3.5],
            "trip_count": job.options.trip_count,
            "metadata": {"mode": "sequential"},
        }
    ]


def _run_oracle(campaign, jobs) -> tuple[float, dict]:
    """The pre-persistent-pool dispatch: fresh executor, static chunks."""
    chunk = _oracle_chunk(len(jobs))
    out: dict = {}
    started = time.perf_counter()
    with cf.ProcessPoolExecutor(max_workers=WORKERS) as pool:
        pending = [
            pool.submit(run_chunk, campaign.machine, jobs[i : i + chunk])
            for i in range(0, len(jobs), chunk)
        ]
        for future in cf.as_completed(pending):
            for job_id, payload, _ms in future.result():
                out[job_id] = payload
    return time.perf_counter() - started, out


def _run_new(campaign, jobs) -> tuple[float, dict]:
    """The persistent-pool dispatch (spawns only if no pool is alive)."""
    out: dict = {}
    stats = RunStats(total_jobs=len(jobs), workers=WORKERS)

    def record(pairs):
        for job, dicts in pairs:
            out[job.job_id] = dicts
        return [True] * len(pairs)

    started = time.perf_counter()
    _dispatch(
        campaign,
        jobs,
        stats=stats,
        pooled=True,
        faults=None,
        attempts=defaultdict(int),
        max_retries=0,
        job_timeout=None,
        retry_backoff=0.0,
        record=record,
        quarantine=lambda job, reason: None,
        say=lambda line: None,
    )
    assert not stats.fell_back_inline
    return time.perf_counter() - started, out


def _bench_cache_batching() -> dict:
    """Per-row ``put`` vs chunk-boundary ``put_many`` on the result store."""
    payload = [
        {
            "kernel_name": "k",
            "cycles_per_iteration": 4.25,
            "experiment_tsc": [1.5, 2.25, 3.5],
            "trip_count": 16,
            "metadata": {"mode": "sequential"},
        }
    ]
    root = Path(tempfile.mkdtemp(prefix="bench-dispatch-"))
    try:
        cache = open_result_cache(root / "per-row")
        started = time.perf_counter()
        for i in range(BATCH_ROWS):
            cache.put(f"job-{i:08d}", payload, kernel="k", mode="m")
        put_s = time.perf_counter() - started

        cache = open_result_cache(root / "batched")
        entries = [
            (f"job-{i:08d}", payload, "k", "m") for i in range(BATCH_ROWS)
        ]
        started = time.perf_counter()
        for i in range(0, BATCH_ROWS, CHUNK_ROWS):
            cache.put_many(entries[i : i + CHUNK_ROWS])
        put_many_s = time.perf_counter() - started
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "sharded": {
            "rows": BATCH_ROWS,
            "put_us_per_row": put_s / BATCH_ROWS * 1e6,
            "put_many_us_per_row": put_many_s / BATCH_ROWS * 1e6,
        }
    }


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the job-body stub reaches workers by fork inheritance",
)
def test_dispatch_throughput():
    campaign = _campaign()
    jobs = campaign.job_list(defer=True)
    assert len(jobs) == 254 * N_LABELS

    real_run_job = runner._run_job
    runner._run_job = _stub_run_job
    shutdown_worker_pool()  # any earlier pool predates the stub
    try:
        oracle_seconds = []
        oracle_out: dict = {}
        for _ in range(RUNS):
            seconds, oracle_out = _run_oracle(campaign, jobs)
            oracle_seconds.append(seconds)

        fresh_s, fresh_out = _run_new(campaign, jobs)
        warm_seconds = []
        warm_out: dict = {}
        for _ in range(RUNS):
            seconds, warm_out = _run_new(campaign, jobs)
            warm_seconds.append(seconds)
    finally:
        runner._run_job = real_run_job
        shutdown_worker_pool()  # stub-forked workers must not outlive this

    assert len(oracle_out) == len(jobs)
    assert fresh_out == oracle_out and warm_out == oracle_out

    oracle_best = min(oracle_seconds)
    warm_best = min(warm_seconds)
    speedup = (len(jobs) / warm_best) / (len(jobs) / oracle_best)

    report = {
        "config": {
            "jobs": len(jobs),
            "distinct_kernels": len({j.kernel_digest for j in jobs}),
            "workers": WORKERS,
            "oracle_chunk": _oracle_chunk(len(jobs)),
            "runs": RUNS,
        },
        "oracle": {
            "seconds": oracle_seconds,
            "best_s": oracle_best,
            "jobs_per_s": len(jobs) / oracle_best,
        },
        "fresh": {"seconds": fresh_s, "jobs_per_s": len(jobs) / fresh_s},
        "warm": {
            "seconds": warm_seconds,
            "best_s": warm_best,
            "jobs_per_s": len(jobs) / warm_best,
        },
        "speedup_vs_prepr": speedup,
        "spawn": {
            "fresh_s": fresh_s,
            "warm_best_s": warm_best,
            "overhead_s": fresh_s - warm_best,
            "warm_over_fresh": warm_best / fresh_s,
        },
        "cache_batching": _bench_cache_batching(),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\ndispatch: {len(jobs)} jobs x {WORKERS} workers "
        f"({report['config']['distinct_kernels']} distinct kernels)"
    )
    print(
        f"  oracle (fresh executor/campaign): {oracle_best:.3f}s  "
        f"{report['oracle']['jobs_per_s']:,.0f} jobs/s"
    )
    print(
        f"  new fresh (pool spawn included):  {fresh_s:.3f}s  "
        f"{report['fresh']['jobs_per_s']:,.0f} jobs/s"
    )
    print(
        f"  new warm (pool + memos reused):   {warm_best:.3f}s  "
        f"{report['warm']['jobs_per_s']:,.0f} jobs/s"
    )
    print(f"  speedup vs pre-PR path: {speedup:.1f}x")
    print(f"wrote {RESULT_PATH}")

    assert speedup >= MIN_SPEEDUP, (
        f"warm dispatch only {speedup:.2f}x the pre-PR executor path "
        f"(floor {MIN_SPEEDUP}x)"
    )
    assert warm_best < fresh_s, (
        f"pool reuse did not pay: warm {warm_best:.3f}s >= "
        f"fresh {fresh_s:.3f}s"
    )
