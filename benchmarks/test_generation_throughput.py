"""Throughput benchmark: warm-cache, deferred dispatch vs a cold parent.

Times a four-spec campaign dispatch (the full ``(Load|Store)+`` families
for ``movss``/``movsd``/``movaps``/``movapd``, ~510 variants each) two
ways:

- **parent**: ``Campaign.job_list()`` with no generation cache and no
  deferral — the parent process runs the whole pass pipeline for every
  spec and each job carries a fully rendered kernel, which is what gets
  pickled to worker processes;
- **deferred**: ``Campaign.job_list(gen_cache=..., defer=True)`` against
  a warm :class:`~repro.engine.ShardedGenerationCache` — variant expansion is a
  cache read (no pipeline) and each spec-derived job carries a
  :class:`~repro.engine.KernelRef` instead of the kernel.

The two sides differ twice, and the speedup comes from the warm cache
skipping the pass pipeline, not from deferral.  With the cache warm on
both sides (2,040 jobs, 16-job chunks, a 2-vCPU host), jobs carrying
cached variants and jobs carrying ``KernelRef`` descriptions expanded
and pickled at about the same rate, 35k-65k variants/s either way;
the refs only cut the pickled payload, from 1.33 MB to 0.41 MB.

Both paths are charged for pickling their jobs in worker-sized chunks,
because the serialized payload is what the refs shrink.  Asserts the
deferred path is at least 3x faster, that its payload is smaller and
that both paths produce identical job ids (deferral must not change
*what* is measured), then writes the numbers to ``BENCH_generation.json``
(repo root) for the CI regression gate — see
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

import pytest

from repro.engine import (
    Campaign,
    ShardedGenerationCache,
    SweepSpec,
    expand_spec_variants,
)
from repro.kernels import loadstore_family
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650

OPCODES = ("movss", "movsd", "movaps", "movapd")
CHUNK_SIZE = 16
MIN_SPEEDUP = 3.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_generation.json"


def _campaign() -> Campaign:
    base = LauncherOptions(array_bytes=16 * 1024, trip_count=1 << 12)
    return Campaign(
        name="generation_throughput",
        machine=nehalem_2s_x5650(),
        sweeps=tuple(
            SweepSpec(spec=loadstore_family(op), base=base) for op in OPCODES
        ),
    )


def _pickled_chunks(jobs) -> int:
    """Serialize jobs in worker-sized chunks; returns total payload bytes."""
    total = 0
    for start in range(0, len(jobs), CHUNK_SIZE):
        total += len(
            pickle.dumps(jobs[start : start + CHUNK_SIZE], pickle.HIGHEST_PROTOCOL)
        )
    return total


def test_deferred_dispatch_speedup(tmp_path):
    campaign = _campaign()
    cache = ShardedGenerationCache(tmp_path / "gencache")
    for sweep in campaign.sweeps:  # warm: one pipeline run per spec
        expand_spec_variants(sweep.spec, sweep.creator_options, cache)

    start = time.perf_counter()
    parent_jobs = campaign.job_list()
    parent_bytes = _pickled_chunks(parent_jobs)
    parent_seconds = time.perf_counter() - start

    start = time.perf_counter()
    deferred_jobs = campaign.job_list(gen_cache=cache, defer=True)
    deferred_bytes = _pickled_chunks(deferred_jobs)
    deferred_seconds = time.perf_counter() - start

    # Speed means nothing if the campaign changed: same jobs, same order.
    assert [j.job_id for j in deferred_jobs] == [j.job_id for j in parent_jobs]

    n_jobs = len(parent_jobs)
    speedup = parent_seconds / deferred_seconds
    record = {
        "benchmark": "generation_throughput",
        "specs": len(OPCODES),
        "jobs": n_jobs,
        "chunk_size": CHUNK_SIZE,
        "parent_seconds": round(parent_seconds, 4),
        "deferred_seconds": round(deferred_seconds, 4),
        "parent_payload_bytes": parent_bytes,
        "deferred_payload_bytes": deferred_bytes,
        "speedup": round(speedup, 2),
        "variants_per_second": round(n_jobs / deferred_seconds, 1),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nparent: {parent_seconds:.3f}s ({parent_bytes:,}B)  "
        f"deferred: {deferred_seconds:.3f}s ({deferred_bytes:,}B)  "
        f"speedup: {speedup:.1f}x  -> {RESULT_PATH.name}"
    )
    assert deferred_bytes < parent_bytes, "refs should pickle smaller than kernels"
    assert speedup >= MIN_SPEEDUP, (
        f"deferred dispatch only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x); "
        f"see {RESULT_PATH}"
    )
