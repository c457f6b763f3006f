"""The campaign scheduler: cache partition -> one dispatch loop -> ordered rows.

``run_campaign`` expands a campaign, answers what it can from the result
cache, executes the remaining jobs and assembles results in campaign
order.  Determinism is structural, not scheduled: each job's noise seed
derives from its content hash (see :meth:`Job.execution_options`), and
rows are ordered by job index, so worker count, chunk boundaries, and
completion order cannot change a single output byte.

There is one scheduler, :func:`_dispatch`, and it drives one of two
executors with the same submit/poll surface: the persistent worker pool
of :mod:`repro.engine.pool` for ``jobs > 1`` or a ``job_timeout`` (only
a process can be stopped), or the in-process executor for an untimed
``jobs=1`` run (and for an untimed run whose pool proves unusable).
Both run a chunk through :func:`run_chunk`: one launcher per chunk, with a
per-process memo so option sweeps over one kernel normalize and model
it once.  Pool workers answer with the chunk's records pickled into
one bytes body, decoded once by :func:`unpack_chunk`, and outlive the
campaign, so their memos stay warm across ``run_campaign`` calls.

Chunks are sized by guided self-scheduling: each fresh chunk takes
⌈jobs not yet carved / workers⌉ jobs, capped at ``_DYNAMIC_MAX_CHUNK``
and at the jobs left in its spec family, so chunks shrink toward one job
at the tail and uneven per-job costs (adaptive stopping varies them
>10x) still keep every worker busy.  No timing input is read, so a
campaign's chunk layout is the same on every run.  Results are
recorded, and become durable in the store, once per chunk.

The scheduler is fault-tolerant: a raising job is retried with
exponential backoff up to ``max_retries`` times, a chunk that exceeds
its deadline (``job_timeout`` seconds per job) has its worker killed,
a crashed worker's chunks are re-dispatched — split in half to isolate
the poisoned job — and a job that keeps failing is *quarantined*: the
campaign completes with N-1 rows and an explicit
:class:`JobFailure` entry in :attr:`CampaignRun.failures` instead of
dying.  All of it is drivable deterministically through
:class:`~repro.engine.faults.FaultPlan`.

When observability is on (:func:`repro.obs.enable`), the scheduler
accounts for itself: spans for expansion, the cache scan, dispatch,
every pool chunk and every in-process job, plus counters and histograms
under ``engine.*`` (cache hits/misses/puts, retries, timeouts,
quarantines, job durations).  The final :attr:`RunStats.metrics`
snapshot carries them back to the caller.  Everything costs one global
check when disabled.
"""

from __future__ import annotations

import itertools
import json
import pickle
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro import obs
from repro.engine.campaign import Campaign, Job
from repro.engine.faults import FaultPlan
from repro.engine.generation import KernelRef, resolve_kernel_ref
from repro.engine.pool import (
    InProcessExecutor,
    PoolUnusable,
    WorkerPool,
    get_worker_pool,
    shutdown_worker_pool,
)
from repro.engine.serialize import measurement_to_dict, measurements_from_payload
from repro.engine.store import open_generation_cache, open_result_cache
from repro.launcher.measurement import Measurement
from repro.launcher.stopping import EXPERIMENT_BUCKETS
from repro.machine.config import MachineConfig

#: Per-process memo of normalized kernels keyed by ``(kernel digest,
#: trip_count)``: parsing/analyzing a kernel (the kernel-model half of a
#: measurement) is pure in its text and lowering size, so a chunk that
#: sweeps options over one kernel evaluates the model once.  Workers now
#: outlive a single campaign, so the memo is LRU (a hit re-inserts at
#: the tail).
_SIM_MEMO: dict[tuple[str, int], object] = {}
_SIM_MEMO_MAX = 512

#: How often the dispatcher wakes to check deadlines and refill workers.
_POLL_SECONDS = 0.05

#: Scheduling grace added on top of ``job_timeout * len(chunk)`` before a
#: chunk is declared hung (pool spin-up, pickling, worker start).
_CHUNK_TIMEOUT_SLACK = 0.25

#: Consecutive pool breakages (with no chunk ever completing) after which
#: the pool is declared unusable and the run falls back inline.
_MAX_POOL_BREAKS_BEFORE_INLINE = 3

#: Hard ceiling on jobs per chunk, so result recording (and
#: crash-consistent cache flushes) stay granular: a chunk's results
#: become durable in the store together, so this also bounds the work
#: an interruption can lose.
_DYNAMIC_MAX_CHUNK = 256


def _sim_kernel_for(job: Job) -> object:
    """Normalize the job's kernel, memoized per worker process.

    Deferred jobs carry a :class:`KernelRef` instead of a kernel; the ref
    is resolved (regenerating its spec's expansion, memoized per process)
    only on a memo miss — a job whose normalized kernel is already cached
    never touches the generator at all.
    """
    from repro.engine.hashing import kernel_digest
    from repro.launcher.kernel_input import as_sim_kernel

    kernel = job.kernel
    if isinstance(kernel, KernelRef):
        digest = job.kernel_digest or kernel.digest
    else:
        digest = job.kernel_digest or kernel_digest(kernel)
    key = (digest, job.options.trip_count)
    sim = _SIM_MEMO.pop(key, None)
    if sim is None:
        if isinstance(kernel, KernelRef):
            kernel = resolve_kernel_ref(kernel)
        sim = as_sim_kernel(kernel, trip_count=job.options.trip_count)
        while len(_SIM_MEMO) >= _SIM_MEMO_MAX:
            # Evict the least-recently-used entry (hits re-insert at the
            # tail): a full wipe mid-sweep would throw away every kernel
            # the current chunk is still using.
            del _SIM_MEMO[next(iter(_SIM_MEMO))]
    # Re-insert on hit and miss alike so the hottest kernels sit at the
    # tail, furthest from eviction — workers persist across campaigns,
    # so recency now matters.
    _SIM_MEMO[key] = sim
    return sim


def _run_job(
    launcher, job: Job, faults: FaultPlan | None = None, attempt: int = 0
) -> list[dict]:
    """Execute one job on an existing launcher."""
    if faults is not None:
        injected = faults.perform(job.job_id, attempt)
        if injected is not None:
            return injected
    options = job.execution_options()
    if options.csv_path:  # the engine owns output; workers never write CSVs
        options = options.with_(csv_path=None)
    kernel = _sim_kernel_for(job)
    if job.mode == "sequential":
        measurements = [launcher.run(kernel, options)]
    elif job.mode == "forked":
        measurements = list(launcher.run_forked(kernel, options).per_core)
    elif job.mode == "openmp":
        measurements = [launcher.run_openmp(kernel, options).measurement]
    elif job.mode == "alignment_sweep":
        measurements = list(launcher.run_alignment_sweep(kernel, options))
    else:  # pragma: no cover - SweepSpec validates modes at build time
        raise ValueError(f"unknown job mode {job.mode!r}")
    return [measurement_to_dict(m) for m in measurements]


def run_chunk(
    machine: MachineConfig,
    jobs: list[Job],
    faults: FaultPlan | None = None,
    attempts: dict[str, int] | None = None,
) -> list[tuple[str, list[dict], float]]:
    """Run a batch of jobs on one launcher: ``(job_id, payload, ms)``.

    The one chunk body: pool workers and the in-process executor both
    call it, so where a job runs cannot change what it measures.  Any
    exception fails the whole chunk; the scheduler splits it to find the
    culprit.  Each job gets an ``engine.job`` span, which is where its
    launcher spans nest when the chunk runs in the tracing process.
    """
    from repro.launcher.launcher import MicroLauncher

    launcher = MicroLauncher(machine)
    attempts = attempts or {}
    records = []
    for job in jobs:
        attempt = attempts.get(job.job_id, 0)
        started = time.perf_counter()
        with obs.span(
            "engine.job",
            metric="engine.job.duration_ms",
            job=job.job_id,
            kernel=job.kernel_name,
            attempt=attempt,
        ):
            dicts = _run_job(launcher, job, faults, attempt)
        records.append(
            (job.job_id, dicts, (time.perf_counter() - started) * 1e3)
        )
    return records


def unpack_chunk(body: bytes) -> list[tuple[str, object, float]]:
    """Decode a pool worker's reply body to ``(job_id, payload, ms)``.

    The one decode point for pool replies: the body is the pickled
    :func:`run_chunk` records, kept as bytes across the pipe so a reply
    that cannot be decoded fails its chunk here instead of reading as a
    torn pipe in :meth:`WorkerPool.poll`.  Payloads are not validated
    (fault-injected debris travels verbatim; validation happens where
    results are recorded).  Raises :class:`ValueError` on anything that
    is not a list of ``(str, payload, float)`` triples.
    """
    try:
        records = pickle.loads(body)
    except Exception as exc:
        raise ValueError(f"undecodable chunk reply: {exc!r}") from None
    if not isinstance(records, list) or not all(
        isinstance(r, tuple)
        and len(r) == 3
        and isinstance(r[0], str)
        and isinstance(r[2], float)
        for r in records
    ):
        raise ValueError("chunk reply is not a list of job records")
    return records


@dataclass(frozen=True, slots=True)
class JobFailure:
    """One quarantined job: identity, attempts made, and the final reason."""

    job_id: str
    kernel: str
    mode: str
    attempts: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kernel": self.kernel,
            "mode": self.mode,
            "attempts": self.attempts,
            "reason": self.reason,
        }


def _failure_reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _count_failed_attempt(reason: str) -> None:
    """Metrics for one failed attempt of one job (not chunk splits)."""
    obs.count("engine.job.attempts.failed")
    if reason == "timeout":
        obs.count("engine.job.timeouts")


def _count_stopping(dicts: list[dict]) -> None:
    """Scheduler-side stopping metrics for pool-executed adaptive jobs.

    The measurement core emits ``stopping.*`` in its own process; a pool
    worker's registry dies with the worker, so re-derive the counters
    from payloads decoded out of pool replies.  In-process chunks never
    pass through here and keep the measurement core's own emission —
    totals match either way.
    """
    for d in dicts:
        if d.get("rciw") is None:
            continue
        obs.count(
            "stopping.converged" if d.get("converged") else "stopping.capped"
        )
        obs.observe(
            "stopping.experiments",
            float(len(d.get("experiment_tsc", ()))),
            bounds=EXPERIMENT_BUCKETS,
        )


@dataclass(slots=True, repr=False)
class RunStats:
    """What one campaign run did: totals, cache traffic, pool shape."""

    total_jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    workers: int = 1
    #: Chunks handed to an executor, re-dispatches and splits included.
    chunks: int = 0
    fell_back_inline: bool = False
    #: Re-dispatches of a single job after a failed attempt.
    retries: int = 0
    #: Jobs quarantined after exhausting their retry budget.
    failed: int = 0
    #: Snapshot of the observability metrics registry at run end
    #: (session-cumulative; ``{}`` when observability is disabled).
    metrics: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total_jobs if self.total_jobs else 0.0

    @property
    def completed(self) -> int:
        """Jobs that produced rows: executions plus cache hits."""
        return self.executed + self.cache_hits

    def __repr__(self) -> str:
        # Hand-rolled so a degraded run — zero completed jobs included —
        # always renders; every rate below is guarded against /0.
        rate = f"{self.cache_hit_rate:.1%}" if self.total_jobs else "n/a"
        extras = ""
        if self.retries or self.failed:
            extras = f", retries={self.retries}, failed={self.failed}"
        if self.fell_back_inline:
            extras += ", fell_back_inline=True"
        return (
            f"RunStats(total_jobs={self.total_jobs}, executed={self.executed}, "
            f"cache_hits={self.cache_hits} ({rate}), workers={self.workers}, "
            f"chunks={self.chunks}{extras})"
        )


@dataclass(slots=True)
class CampaignRun:
    """Result of one campaign run: jobs plus their measurements.

    A quarantined job appears in :attr:`failures` (in campaign order)
    and contributes no rows; everything else is exactly what a
    fault-free run produces.
    """

    campaign: Campaign
    jobs: list[Job]
    results: dict[str, list[Measurement]]
    stats: RunStats = field(default_factory=RunStats)
    failures: list[JobFailure] = field(default_factory=list)

    def per_job(self) -> Iterable[tuple[Job, list[Measurement]]]:
        """(job, measurements) pairs in campaign (job-index) order.

        Quarantined jobs are skipped: the run degrades to N-1 rows.
        """
        for job in self.jobs:
            measurements = self.results.get(job.job_id)
            if measurements is not None:
                yield job, measurements

    def rows(self) -> list[tuple[Job, Measurement]]:
        """Flat (job, measurement) rows in deterministic output order."""
        return [(job, m) for job, ms in self.per_job() for m in ms]

    def measurements(self) -> list[Measurement]:
        return [m for _, m in self.rows()]

    def grouped(self, tag: str) -> dict[object, list[tuple[Job, Measurement]]]:
        """Rows bucketed by one tag's value (sweep label or axis value)."""
        groups: dict[object, list[tuple[Job, Measurement]]] = {}
        for job, m in self.rows():
            groups.setdefault(job.tags.get(tag), []).append((job, m))
        return groups

    def write_csv(self, path: str | Path, *, full: bool = False) -> Path:
        """Write every result row as a launcher CSV (full precision)."""
        from repro.launcher.csvout import write_csv

        return write_csv(path, self.measurements(), full=full)

    def write_jsonl(self, path: str | Path) -> Path:
        """Write one JSON line per result row (job identity + measurement).

        Quarantined jobs are surfaced explicitly: after the result rows,
        one ``{"failure": {...}}`` line per entry in :attr:`failures`,
        so a consumer can tell a degraded run from a smaller campaign.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for job, m in self.rows():
                record = {
                    "job_id": job.job_id,
                    "kernel": job.kernel_name,
                    "mode": job.mode,
                    "tags": job.tags,
                    "measurement": measurement_to_dict(m),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            for failure in self.failures:
                fh.write(
                    json.dumps({"failure": failure.to_dict()}, sort_keys=True) + "\n"
                )
        return path


@dataclass(slots=True)
class _Unit:
    """One dispatchable batch of jobs, possibly delayed by backoff."""

    jobs: list[Job]
    not_before: float = 0.0


def _gen_group(job: Job) -> tuple[str, str] | None:
    """The spec expansion a deferred job regenerates from (else ``None``)."""
    kernel = job.kernel
    return kernel.memo_key() if isinstance(kernel, KernelRef) else None


class _ChunkPlanner:
    """Carves pending jobs into dispatch units by guided self-scheduling.

    A fresh chunk takes ⌈jobs not yet carved / ``workers``⌉ jobs, capped
    at ``_DYNAMIC_MAX_CHUNK`` and at the jobs left in its spec family:
    early chunks are large, and chunks shrink toward one job at the
    tail, so no worker is handed the tail alone.  Chunks never span two
    spec families: a deferred chunk regenerates its spec worker-side,
    and mixing two specs would run two pipelines in one worker.
    Campaign expansion already keeps a sweep's jobs contiguous.  Sizing
    only changes how many jobs share a launcher and a store write; job
    identity, seeds, and output bytes are untouched.
    """

    def __init__(self, pending: list[Job], workers: int) -> None:
        self._workers = workers
        self._left = len(pending)
        self._groups: deque[deque[Job]] = deque(
            deque(group) for _key, group in itertools.groupby(pending, key=_gen_group)
        )

    def exhausted(self) -> bool:
        return not self._groups

    def carve(self) -> _Unit | None:
        """The next fresh dispatch unit, or ``None`` when drained."""
        if not self._groups:
            return None
        batch = self._groups[0]
        size = min(
            _DYNAMIC_MAX_CHUNK, -(-self._left // self._workers), len(batch)
        )
        jobs = [batch.popleft() for _ in range(size)]
        self._left -= size
        if not batch:
            self._groups.popleft()
        return _Unit(jobs)


def _dispatch(
    campaign: Campaign,
    pending: list[Job],
    *,
    stats: RunStats,
    pooled: bool,
    faults: FaultPlan | None,
    attempts: dict[str, int],
    max_retries: int,
    job_timeout: float | None,
    retry_backoff: float,
    record: Callable[[list[tuple[Job, list[dict]]]], list[bool]],
    quarantine: Callable[[Job, str], None],
    say: Callable[[str], None],
) -> None:
    """Run every pending job to a recorded result or a quarantine.

    The one dispatch loop.  It drives the persistent worker pool when
    ``pooled`` and the in-process executor otherwise; a pool that proves
    unusable is swapped for the in-process executor without leaving the
    loop, so the work queue, the planner and every job's attempt count
    carry over — except in a timed run, which raises
    :class:`PoolUnusable` instead.  Recovery rules:

    - a chunk that raised is *split in half* and re-dispatched,
      isolating the poisoned job in O(log chunk) rounds without charging
      an attempt to jobs that cannot be blamed individually;
    - a single failing job is retried with exponential backoff, then
      quarantined once it has failed ``max_retries + 1`` times;
    - a dead worker rebuilds the pool under a new epoch: the chunk it
      had claimed is treated as failed, every other in-flight chunk is
      re-dispatched without being charged an attempt, and any straggler
      message from the old generation is dropped by its stale epoch;
    - with ``job_timeout``, a chunk gets ``job_timeout * len(chunk)``
      seconds from dispatch; past that the pool, whose worker still
      holds the hung chunk, is rebuilt the same way.
    """
    #: Retry/split re-dispatches; fresh chunks are carved on demand so
    #: each is sized from the jobs still left to carve.
    work: deque[_Unit] = deque()
    planner = _ChunkPlanner(pending, stats.workers)
    # task_id -> (unit, deadline, perf_counter submit time); submit time
    # feeds the per-chunk trace spans.  Submission is windowed to the
    # worker count, so submission time ~= start time, which is what
    # makes the per-chunk deadline meaningful.
    in_flight: dict[int, tuple[_Unit, float | None, float]] = {}
    ever_succeeded = False
    consecutive_breaks = 0

    def fail_unit(unit: _Unit, reason: str) -> None:
        if len(unit.jobs) > 1:
            mid = len(unit.jobs) // 2
            work.append(_Unit(unit.jobs[:mid]))
            work.append(_Unit(unit.jobs[mid:]))
            return
        job = unit.jobs[0]
        _count_failed_attempt(reason)
        attempts[job.job_id] += 1
        if attempts[job.job_id] > max_retries:
            quarantine(job, reason)
            return
        stats.retries += 1
        obs.count("engine.job.retries")
        backoff = retry_backoff * (2 ** (attempts[job.job_id] - 1))
        work.append(_Unit(unit.jobs, not_before=time.monotonic() + backoff))

    def requeue_innocents() -> None:
        """Re-dispatch in-flight chunks that cannot be blamed, free."""
        for unit, _deadline, _submitted in in_flight.values():
            work.append(_Unit(unit.jobs))
        in_flight.clear()

    def chunk_span(unit: _Unit, submitted: float, outcome: str) -> None:
        # Pool chunks only: an in-process chunk is already covered by
        # the engine.job spans it emitted itself.
        if isinstance(executor, WorkerPool):
            obs.add_span(
                "engine.chunk",
                submitted,
                time.perf_counter() - submitted,
                jobs=len(unit.jobs),
                outcome=outcome,
            )

    def next_ready_unit() -> _Unit | None:
        """The first retry/split unit past its backoff, else a fresh chunk."""
        now = time.monotonic()
        for index, unit in enumerate(work):
            if unit.not_before <= now:
                del work[index]
                return unit
        return planner.carve()

    def run_inline(exc: PoolUnusable) -> InProcessExecutor:
        requeue_innocents()
        shutdown_worker_pool()
        if job_timeout is not None:
            raise PoolUnusable(
                "job_timeout needs worker processes to stop a hung job, "
                f"and the worker pool is unusable here ({exc})"
            ) from exc
        stats.fell_back_inline = True
        dispatch_span.set(mode="inline")
        say(f"{campaign.name}: worker pool unavailable, running inline")
        return InProcessExecutor()

    def submit_ready() -> None:
        """Hand ready units to the executor until every worker is busy."""
        while len(in_flight) < executor.workers:
            unit = next_ready_unit()
            if unit is None:
                return
            snapshot = {j.job_id: attempts[j.job_id] for j in unit.jobs}
            try:
                task_id = executor.submit(campaign.machine, unit.jobs, faults, snapshot)
            except OSError as exc:
                work.appendleft(unit)
                raise PoolUnusable(str(exc)) from exc
            except Exception as exc:  # unpicklable chunk: charge it
                fail_unit(unit, _failure_reason(exc))
                continue
            if task_id is None:  # no idle worker (one may be dead)
                work.appendleft(unit)
                return
            stats.chunks += 1
            deadline = (
                None
                if job_timeout is None
                else time.monotonic()
                + job_timeout * len(unit.jobs)
                + _CHUNK_TIMEOUT_SLACK
            )
            in_flight[task_id] = (unit, deadline, time.perf_counter())

    def collect(kind: str, task_id: int, body: object) -> None:
        """Record one finished chunk, or fail it."""
        nonlocal ever_succeeded, consecutive_breaks
        entry = in_flight.pop(task_id, None)
        if entry is None:  # pragma: no cover - defensive
            return
        unit, _deadline, submitted = entry
        if kind == "error":
            chunk_span(unit, submitted, body)
            fail_unit(unit, body)
            return
        if kind == "ok":  # a pickled reply body from a pool worker
            try:
                outputs = unpack_chunk(body)
            except ValueError as exc:
                chunk_span(unit, submitted, _failure_reason(exc))
                fail_unit(unit, _failure_reason(exc))
                return
            chunk_span(unit, submitted, "ok")
            # Real per-job wall clock, measured worker-side and carried
            # in the reply.  In-process records were observed by their
            # own engine.job spans.
            if obs.is_enabled():
                for _job_id, _dicts, duration_ms in outputs:
                    obs.observe("engine.job.duration_ms", duration_ms)
        else:  # "records": the in-process executor's, already decoded
            outputs = body
        ever_succeeded = True
        consecutive_breaks = 0
        by_id = {job.job_id: job for job in unit.jobs}
        pairs = [(by_id[job_id], dicts) for job_id, dicts, _ in outputs]
        for (job, dicts), ok in zip(pairs, record(pairs)):
            if not ok:
                fail_unit(_Unit([job]), "invalid-result")
            elif kind == "ok" and obs.is_enabled():
                _count_stopping(dicts)

    def reap() -> None:
        """Fail chunks whose worker died or whose deadline passed."""
        nonlocal consecutive_breaks
        dead = executor.dead_worker_ids()
        if dead:
            consecutive_breaks += 1
            if (
                consecutive_breaks >= _MAX_POOL_BREAKS_BEFORE_INLINE
                and not ever_succeeded
            ):
                raise PoolUnusable("workers keep dying")
            for worker_id in dead:
                # The parent assigned the task, so blame needs no worker
                # cooperation: a dead worker's task is whatever the pool
                # still shows assigned to it.
                entry = in_flight.pop(executor.task_of(worker_id), None)
                if entry is not None:
                    unit, _deadline, submitted = entry
                    chunk_span(unit, submitted, "worker-crash")
                    fail_unit(unit, "worker-crash")
            requeue_innocents()
            executor.rebuild()
            say(f"{campaign.name}: worker crashed; re-dispatching its jobs")
            return
        now = time.monotonic()
        expired = [
            task_id
            for task_id, (_unit, deadline, _submitted) in in_flight.items()
            if deadline is not None and now > deadline
        ]
        if expired:
            for task_id in expired:
                unit, _deadline, submitted = in_flight.pop(task_id)
                chunk_span(unit, submitted, "timeout")
                fail_unit(unit, "timeout")
            # The hung chunk still owns its worker; kill it by rebuilding
            # the pool and re-dispatch the innocent chunks.
            requeue_innocents()
            executor.rebuild()
            say(
                f"{campaign.name}: chunk exceeded its {job_timeout:.3g}s/job "
                "budget; rebuilding the pool"
            )

    with obs.span(
        "engine.dispatch",
        mode="pool" if pooled else "inline",
        jobs=len(pending),
        workers=stats.workers,
    ) as dispatch_span:
        executor: WorkerPool | InProcessExecutor = InProcessExecutor()
        if pooled:
            try:
                executor = get_worker_pool(stats.workers)
                say(
                    f"{campaign.name}: dispatching {len(pending)} jobs to "
                    f"{stats.workers} persistent workers"
                )
            except PoolUnusable as exc:
                executor = run_inline(exc)
        while work or in_flight or not planner.exhausted():
            try:
                submit_ready()
                # With nothing in flight (every unit backing off), poll
                # just sleeps one interval.
                for kind, _worker_id, task_id, body in executor.poll(_POLL_SECONDS):
                    collect(kind, task_id, body)
                reap()
            except PoolUnusable as exc:
                executor = run_inline(exc)


def run_campaign(
    campaign: Campaign,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
    max_retries: int = 2,
    job_timeout: float | None = None,
    retry_backoff: float = 0.05,
    faults: FaultPlan | None = None,
    gen_cache_dir: str | Path | None = None,
) -> CampaignRun:
    """Execute a campaign and return its ordered results.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` without ``job_timeout`` runs every job in
        this process.  A pool run ships spec-derived kernels as
        :class:`KernelRef` descriptions, regenerated in the measuring
        process.  If the pool cannot start (restricted environments), an
        untimed run continues in-process through the same dispatch loop
        — results are identical either way.  Each fresh chunk holds
        ⌈jobs not yet carved / ``jobs``⌉ jobs, at most 256 and never more
        than its spec family has left, so chunks shrink toward one job
        at the tail of the campaign.
    cache_dir:
        Reuse measurements across runs: jobs whose ID is already stored
        are not executed.  A cached payload that fails validation is
        re-measured, never returned.
    resume:
        When ``False``, stored results are ignored (every job executes)
        but completions are still recorded — a forced re-measure.
    progress:
        Optional callback receiving one human-readable line per phase.
    max_retries:
        Failed attempts a job may make beyond its first before it is
        quarantined (so every job gets ``max_retries + 1`` tries).
    job_timeout:
        Wall-clock seconds one job may take: a chunk gets
        ``job_timeout * len(chunk)`` from dispatch, then its worker is
        killed.  A timed run therefore uses worker processes even at
        ``jobs=1``, and raises :class:`~repro.engine.pool.PoolUnusable`
        where they cannot be spawned.  ``None`` disables the deadline.
    retry_backoff:
        Base delay before re-dispatching a failed job; doubles per
        failed attempt.
    faults:
        Deterministic fault-injection plan (tests and chaos drills);
        ``None`` injects nothing.
    gen_cache_dir:
        Persist spec expansions across runs (see
        :mod:`repro.engine.gencache`): a warm cache expands the campaign
        without running the pass pipeline.  A directory still holding a
        legacy JSONL cache is migrated into the store on open (see
        :mod:`repro.engine.store`).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if job_timeout is not None and job_timeout <= 0:
        raise ValueError("job_timeout must be positive")
    cache = open_result_cache(cache_dir) if cache_dir is not None else None
    gen_cache = (
        open_generation_cache(gen_cache_dir) if gen_cache_dir is not None else None
    )

    # The one executor decision: only a process can be stopped.
    pooled = jobs > 1 or job_timeout is not None
    with obs.span(
        "engine.campaign", campaign=campaign.name, workers=max(1, jobs)
    ) as campaign_span:
        with obs.span("engine.expand"):
            job_list = campaign.job_list(gen_cache=gen_cache, defer=pooled)
        campaign_span.set(jobs=len(job_list))
        say = progress or (lambda message: None)
        stats = RunStats(total_jobs=len(job_list), workers=max(1, jobs))

        results: dict[str, list[Measurement]] = {}
        pending: list[Job] = []
        seen: set[str] = set()
        # Cache partition: every job in the campaign is answered by the
        # cache (engine.cache.hits), scheduled for execution
        # (engine.cache.misses), or a duplicate grid point sharing an
        # already-partitioned job's rows (engine.jobs.deduped) — the
        # three counters always sum to the campaign's job count.
        with obs.span("engine.cache.scan", metric="engine.cache.scan_ms"):
            # Register both sides of the partition up front so every
            # export carries the invariant, an all-miss cold run included.
            obs.count("engine.cache.hits", 0)
            obs.count("engine.cache.misses", 0)
            for job in job_list:
                if job.job_id in seen:
                    # duplicate grid point: measure once, share the rows
                    obs.count("engine.jobs.deduped")
                    continue
                seen.add(job.job_id)
                if cache and resume:
                    cached = cache.get(job.job_id)
                    if cached is not None:
                        try:
                            results[job.job_id] = measurements_from_payload(cached)
                        except ValueError:
                            pass  # damaged cache entry: re-measure below
                        else:
                            stats.cache_hits += 1
                            obs.count("engine.cache.hits")
                            continue
                obs.count("engine.cache.misses")
                pending.append(job)
        say(
            f"{campaign.name}: {len(job_list)} jobs, "
            f"{stats.cache_hits} cached, {len(pending)} to run"
        )

        failures: dict[str, JobFailure] = {}
        attempts: dict[str, int] = defaultdict(int)

        def record(pairs: list[tuple[Job, list[dict]]]) -> list[bool]:
            """Validate a chunk's payloads, then persist them in one batch.

            Returns one ``ok`` per pair (``False``: corrupt payload).
            Every valid row of the chunk is durable before the scheduler
            moves on, so an interrupted run loses at most the chunks in
            flight.
            """
            oks: list[bool] = []
            puts: list[tuple[str, list[dict], str, str]] = []
            for job, dicts in pairs:
                try:
                    measurements = measurements_from_payload(dicts)
                except ValueError:
                    oks.append(False)
                    continue
                results[job.job_id] = measurements
                stats.executed += 1
                puts.append((job.job_id, dicts, job.kernel_name, job.mode))
                oks.append(True)
            if cache is not None and puts:
                with obs.span(
                    "engine.cache.put",
                    metric="engine.cache.put_ms",
                    jobs=len(puts),
                ):
                    cache.put_many(puts)
                obs.count("engine.cache.puts", len(puts))
            return oks

        def quarantine(job: Job, reason: str) -> None:
            failures[job.job_id] = JobFailure(
                job_id=job.job_id,
                kernel=job.kernel_name,
                mode=job.mode,
                attempts=attempts[job.job_id],
                reason=reason,
            )
            obs.count("engine.job.quarantined")
            say(
                f"{campaign.name}: quarantined job {job.job_id} "
                f"({job.kernel_name}) after {attempts[job.job_id]} attempts: "
                f"{reason}"
            )

        if pending:
            _dispatch(
                campaign,
                pending,
                stats=stats,
                pooled=pooled,
                faults=faults,
                attempts=attempts,
                max_retries=max_retries,
                job_timeout=job_timeout,
                retry_backoff=retry_backoff,
                record=record,
                quarantine=quarantine,
                say=say,
            )

        ordered_failures: list[JobFailure] = []
        reported: set[str] = set()
        for job in job_list:
            if job.job_id in failures and job.job_id not in reported:
                reported.add(job.job_id)
                ordered_failures.append(failures[job.job_id])
        stats.failed = len(ordered_failures)
        stats.metrics = obs.metrics_snapshot()
        say(
            f"{campaign.name}: done — {stats.executed} executed, "
            f"{stats.cache_hits} cache hits"
            + (f", {stats.failed} failed" if stats.failed else "")
        )
        return CampaignRun(
            campaign=campaign,
            jobs=job_list,
            results=results,
            stats=stats,
            failures=ordered_failures,
        )
