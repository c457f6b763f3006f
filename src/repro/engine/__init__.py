"""The campaign engine: declarative, parallel, cached experiment sweeps.

The paper's workflow is inherently a *campaign*: one XML description
expands into hundreds of kernel variants, each measured under a grid of
launcher configurations (array sizes, alignments, cores, frequencies).
This package turns that workflow into a first-class pipeline:

- :mod:`repro.engine.campaign` -- :class:`SweepSpec` / :class:`Campaign`
  describe a grid of kernels x launcher-option axes declaratively and
  expand it into :class:`Job` records with stable content-hash IDs,
- :mod:`repro.engine.store` -- the disk-backed result store keyed by
  job ID, so re-running an exhibit or resuming an interrupted campaign
  only executes the missing jobs, and the generation store for
  *rendered variants* (:mod:`repro.engine.gencache`): a warm generation
  cache expands a spec sweep without running the pass pipeline,
- :mod:`repro.engine.generation` -- deferred generation
  (:class:`KernelRef`): spec-backed jobs ship a reference and workers
  regenerate their slice locally, memoized per process,
- :mod:`repro.engine.runner` -- one fault-tolerant dispatch loop over
  the persistent worker pool or, for an untimed ``jobs=1`` run, the
  in-process executor; per-job derived noise seeds make results bit-identical
  regardless of worker count, chunking, or scheduling order; failing
  jobs are retried with backoff, hung chunks time out, crashed workers'
  jobs are re-dispatched, and a persistently bad job is quarantined
  into :class:`JobFailure` entries instead of killing the run,
- :mod:`repro.engine.pool` -- the executors: long-lived worker
  processes reused across ``run_campaign`` calls (epoch-tokened
  kill+rebuild, per-worker pipes; each chunk's records come back
  pickled into one bytes reply) and the in-process executor,
- :mod:`repro.engine.faults` -- deterministic fault injection
  (:class:`FaultPlan`): make a chosen job raise, hang, return garbage,
  or crash its worker at a chosen attempt, reproducibly,
- :mod:`repro.engine.serialize` -- ``Measurement`` <-> dict round-trip
  serialization behind both the cache and the JSONL output format.

Quickstart::

    from repro.engine import Campaign, SweepSpec, run_campaign
    from repro.launcher import LauncherOptions
    from repro.machine import nehalem_2s_x5650

    campaign = Campaign(
        name="unroll-sweep",
        machine=nehalem_2s_x5650(),
        sweeps=[SweepSpec(kernels=variants,
                          base=LauncherOptions(trip_count=1 << 14),
                          axes={"array_bytes": (32*1024, 8*1024*1024)})],
    )
    run = run_campaign(campaign, jobs=4, cache_dir="results/.cache")
    run.write_csv("results/sweep.csv")
"""

from repro.engine.campaign import Campaign, Job, SweepSpec
from repro.engine.faults import Fault, FaultPlan, InjectedFault
from repro.engine.gencache import CachedVariant
from repro.engine.generation import KernelRef, expand_spec_variants
from repro.engine.hashing import (
    creator_options_digest,
    job_id_for,
    kernel_digest,
    machine_digest,
    options_digest,
    spec_digest,
)
from repro.engine.pool import (
    PoolUnusable,
    WorkerPool,
    get_worker_pool,
    shutdown_worker_pool,
)
from repro.engine.runner import CampaignRun, JobFailure, RunStats, run_campaign
from repro.engine.serialize import (
    measurement_from_dict,
    measurement_to_dict,
    measurements_from_payload,
    options_to_dict,
)
from repro.engine.store import (
    ShardedGenerationCache,
    ShardedResultCache,
    ShardedStore,
    open_generation_cache,
    open_result_cache,
)

__all__ = [
    "CachedVariant",
    "Campaign",
    "CampaignRun",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "Job",
    "JobFailure",
    "KernelRef",
    "PoolUnusable",
    "RunStats",
    "ShardedGenerationCache",
    "ShardedResultCache",
    "ShardedStore",
    "SweepSpec",
    "WorkerPool",
    "creator_options_digest",
    "expand_spec_variants",
    "get_worker_pool",
    "job_id_for",
    "kernel_digest",
    "machine_digest",
    "measurement_from_dict",
    "measurement_to_dict",
    "measurements_from_payload",
    "open_generation_cache",
    "open_result_cache",
    "options_digest",
    "options_to_dict",
    "run_campaign",
    "shutdown_worker_pool",
    "spec_digest",
]
