#!/usr/bin/env python3
"""Campaign sweep: a declarative grid, run in parallel, cached on disk.

The campaign engine replaces hand-written measurement loops:

1. one ``SweepSpec`` describes kernels x option axes (here the movaps
   unroll family swept over four memory footprints and three trip
   counts — variants are generated from the kernel description),
2. ``run_campaign`` expands it into content-hashed jobs, answers what
   it can from the cache, and schedules the rest on worker processes,
3. results come back in deterministic grid order — byte-identical no
   matter how many workers ran them,
4. a second run is pure cache hits: zero jobs execute.

Run:  python examples/campaign_sweep.py
"""

import tempfile
from pathlib import Path

from repro.engine import Campaign, SweepSpec, run_campaign
from repro.launcher import LauncherOptions
from repro.machine import MemLevel, nehalem_2s_x5650
from repro.spec import load_kernel

machine = nehalem_2s_x5650()
footprints = [machine.footprint_for(level) for level in
              (MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.RAM)]

campaign = Campaign(
    name="movaps_footprint_grid",
    machine=machine,
    description="movaps unroll family x memory level x trip count",
    sweeps=(
        SweepSpec(
            spec=load_kernel("movaps"),  # 8 unroll variants, generated
            base=LauncherOptions(experiments=2, repetitions=4),
            axes={
                "array_bytes": tuple(footprints),
                "trip_count": (512, 2048, 8192),
            },
        ),
    ),
)

with tempfile.TemporaryDirectory() as cache_dir:
    print("— cold run (4 workers) —")
    run = run_campaign(campaign, jobs=4, cache_dir=cache_dir, progress=print)

    print()
    print(f"{run.stats.total_jobs} jobs, {run.stats.executed} executed, "
          f"{run.stats.cache_hits} cache hits")
    print(f"cache file: {Path(cache_dir) / 'results.jsonl'}")

    # Group rows by an axis without re-deriving the grid:
    print()
    print("best cycles/iteration per footprint:")
    for array_bytes, rows in sorted(run.grouped("array_bytes").items()):
        job, m = min(rows, key=lambda jm: jm[1].cycles_per_iteration)
        print(f"  {array_bytes:>9} B  {m.cycles_per_iteration:6.3f}  "
              f"({job.kernel_name}, trip={job.tags['trip_count']})")

    print()
    print("— warm run (same cache) —")
    warm = run_campaign(campaign, jobs=4, cache_dir=cache_dir, progress=print)
    assert warm.stats.executed == 0, "warm run must be pure cache hits"
    assert warm.measurements() == run.measurements()
    print(f"re-run executed {warm.stats.executed} jobs "
          f"({warm.stats.cache_hits} cache hits) — results identical")
