"""The four end-to-end workloads, one repetition per fresh process.

``bench.py`` starts this file as a child process for every repetition
(``python workloads.py '<request json>'``), so nothing a command-line
user pays on each run is warm when the workload starts: the imports,
the kernel-model memo (``_SIM_MEMO``), the generation memo
(``_GEN_MEMO``), the noise-stream cache and the worker pool.  The child
reports when it became ready on the system-wide monotonic clock (the
parent subtracts its own spawn time to get ``setup_s``), how long the
workload body took, how many jobs it resolved, a digest of its output,
the result of every output check and its peak memory.

The workloads are importable too: the tests run each one in-process on
a reduced grid (``reduced=True``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("exhibits", "sweep_cold", "sweep_warm", "characterize")

#: The program's own default noise seed (the CLI default as well).
DEFAULT_SEED = 12345

#: Pool size of ``sweep_cold``.  Fixed rather than ``os.cpu_count()`` so
#: that numbers from different hosts compare; the results record nproc.
WORKERS = 2

EXHIBITS = ("fig11", "fig12", "fig13")
SWEEP_OPS = ("movaps", "movss")
MACHINES = ("nehalem-2s", "nehalem-4s", "sandy-bridge")

#: Reduced-grid variants for smoke tests: same code paths, ~1% of the jobs.
REDUCED_SWEEP_OPS = ("movss",)
REDUCED_MACHINES = ("nehalem-2s",)
REDUCED_OPCODES = ("add", "addps", "mulps", "movaps")


def monotonic() -> float:
    """System-wide monotonic time: comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """What one workload body produced, ready to be checked."""

    jobs: int
    quarantined: int = 0
    digest: str = ""
    checks: dict[str, bool] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def _patched(owner: object, name: str, value: object):
    """Replace ``owner.name`` for the duration of a ``with`` block."""
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


# -- exhibits -----------------------------------------------------------------


def _capture_runs(runs: list):
    """Wrap the experiments' ``run_campaign`` to keep each CampaignRun.

    ``run_experiment`` returns only the figure, so the job count and the
    quarantine list are read off the runs at the call site.  The span
    costs one global check while tracing is off.
    """
    from repro import obs
    from repro.analysis.experiments import sequential

    inner = sequential.run_campaign

    @functools.wraps(inner)
    def run_campaign(*args, **kwargs):
        with obs.span("bench.run_campaign"):
            run = inner(*args, **kwargs)
        runs.append(run)
        return run

    return _patched(sequential, "run_campaign", run_campaign)


def exhibits_body(workdir: Path, seed: int, *, reduced: bool = False) -> Outcome:
    """Figs. 11-13 through the experiment registry, each into a fresh store.

    The paper's inputs fix the noise seed, so ``seed`` is not applied.
    """
    from repro.analysis import run_experiment

    runs: list = []
    series: list = []
    checks: dict[str, bool] = {}
    with _capture_runs(runs):
        for name in EXHIBITS:
            result = run_experiment(
                name, quick=reduced, jobs=1, cache_dir=workdir / f"store-{name}"
            )
            series.extend(
                [name, s.label, [repr(x) for x in s.x], [repr(y) for y in s.y]]
                for s in result.series
            )
            for note, value in result.notes.items():
                if isinstance(value, bool):
                    checks[f"{name}.{note}"] = value
    return Outcome(
        jobs=sum(run.stats.total_jobs for run in runs),
        quarantined=sum(len(run.failures) for run in runs),
        digest=sha256(json.dumps(series).encode()),
        checks=checks,
    )


# -- sweeps -------------------------------------------------------------------


def _unroll_one(variant) -> bool:
    return variant.unroll == 1


def sweep_campaign(seed: int, *, reduced: bool = False):
    """The (op x hierarchy footprint x core frequency) grid of every variant.

    Full size: 2 ops x 510 variants x 4 footprints x 5 frequencies =
    20,400 jobs, all generated from the spec at expansion time.
    """
    from repro.engine import Campaign, SweepSpec
    from repro.kernels import loadstore_family
    from repro.launcher import LauncherOptions
    from repro.machine import MemLevel, nehalem_2s_x5650

    machine = nehalem_2s_x5650()
    levels = (MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.RAM)
    base = LauncherOptions(
        trip_count=1 << 14, experiments=4, repetitions=8, noise_seed=seed
    )
    sweeps = tuple(
        SweepSpec(
            spec=loadstore_family(op),
            variant_filter=_unroll_one if reduced else None,
            base=base,
            axes={
                "array_bytes": tuple(machine.footprint_for(lv) for lv in levels),
                "frequency_ghz": machine.freq_steps,
            },
            tags={"op": op},
        )
        for op in (REDUCED_SWEEP_OPS if reduced else SWEEP_OPS)
    )
    return Campaign(name="e2e-sweep", machine=machine, sweeps=sweeps)


def sweep_body(
    workdir: Path,
    store: Path,
    seed: int,
    *,
    jobs: int,
    warm: bool = False,
    reduced: bool = False,
) -> Outcome:
    """Run the sweep against ``store`` and write its CSV into ``workdir``.

    ``warm`` asserts that the store answered every job, which is what
    makes ``sweep_warm`` a read-path workload.
    """
    from repro import obs
    from repro.engine import run_campaign

    with obs.span("bench.run_campaign"):
        run = run_campaign(
            sweep_campaign(seed, reduced=reduced),
            jobs=jobs,
            cache_dir=store / "results",
            gen_cache_dir=store / "gencache",
        )
    csv_path = workdir / "sweep.csv"
    with obs.span("bench.write_csv"):
        run.write_csv(csv_path)
    checks = {"no_quarantine": not run.failures}
    if jobs > 1:
        checks["pool_used"] = not run.stats.fell_back_inline
    if warm:
        checks["all_from_store"] = run.stats.cache_hits == run.stats.total_jobs
    return Outcome(
        jobs=run.stats.total_jobs,
        quarantined=len(run.failures),
        digest=sha256(csv_path.read_bytes()),
        checks=checks,
    )


# -- characterize -------------------------------------------------------------


def characterize_body(workdir: Path, seed: int, *, reduced: bool = False) -> Outcome:
    """Probe, solve and round-trip-verify three machines, inline."""
    from repro import obs
    from repro.characterize import (
        characterization_options,
        run_characterization,
        verify_table,
    )
    from repro.machine import preset

    tables: list[bytes] = []
    checks: dict[str, bool] = {}
    jobs = 0
    for name in REDUCED_MACHINES if reduced else MACHINES:
        machine = preset(name)
        with obs.span("bench.run_characterization"):
            result = run_characterization(
                machine,
                opcodes=REDUCED_OPCODES if reduced else None,
                options=characterization_options(noise_seed=seed),
                cache_dir=str(workdir / f"store-{name}"),
            )
        with obs.span("bench.verify_table"):
            checks[f"{name}.verify_ok"] = verify_table(result.table, machine).ok
        tables.append(result.table.to_json().encode())
        jobs += result.run.stats.total_jobs
    return Outcome(jobs=jobs, digest=sha256(b"".join(tables)), checks=checks)


# -- tracing hooks --------------------------------------------------------------


def install_trace_hooks(stack: ExitStack, worker_job_ms: list[float]) -> None:
    """Span the layer entry points the program itself does not trace.

    Only the traced repetition installs them.  Each wrapper replaces the
    name where its caller looks it up, so the program's code is untouched:

    - ``kernel_input.as_sim_kernel``: the runner imports it on each memo
      miss, so every call is one kernel-model evaluation;
    - ``NoiseModel.perturb_batch``: the measurement core's noise;
    - ``MicroCreator.generate`` and the characterization driver's
      ``run_campaign`` / ``solve_table``;
    - ``runner.unpack_chunk``: decodes pool replies, which carry the
      worker-side duration of every job (appended to ``worker_job_ms``).
    """
    from repro import obs
    from repro.characterize import driver
    from repro.creator import MicroCreator
    from repro.engine import runner
    from repro.launcher import kernel_input
    from repro.machine.noise import NoiseModel

    for owner, name, span in (
        (kernel_input, "as_sim_kernel", "bench.model"),
        (NoiseModel, "perturb_batch", "bench.noise"),
        (MicroCreator, "generate", "bench.generate"),
        (driver, "run_campaign", "bench.run_campaign"),
        (driver, "solve_table", "bench.solve_table"),
    ):
        stack.enter_context(
            _patched(owner, name, _spanned(span, getattr(owner, name)))
        )

    unpack = runner.unpack_chunk

    @functools.wraps(unpack)
    def unpack_chunk(body):
        with obs.span("bench.unpack"):
            outputs = unpack(body)
        worker_job_ms.extend(duration_ms for _, _, duration_ms in outputs)
        return outputs

    stack.enter_context(_patched(runner, "unpack_chunk", unpack_chunk))


def _spanned(name: str, inner):
    from repro import obs

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return inner(*args, **kwargs)

    return wrapper


# -- one repetition -------------------------------------------------------------


def run_body(
    workload: str,
    workdir: Path,
    seed: int,
    *,
    store: Path | None = None,
    reduced: bool = False,
) -> Outcome:
    """The timed part of one repetition of ``workload``."""
    if workload == "exhibits":
        return exhibits_body(workdir, seed, reduced=reduced)
    if workload == "sweep_cold":
        return sweep_body(
            workdir, workdir / "store", seed, jobs=WORKERS, reduced=reduced
        )
    if workload == "sweep_warm":
        if store is None:
            raise ValueError("sweep_warm needs a populated store")
        return sweep_body(workdir, store, seed, jobs=1, warm=True, reduced=reduced)
    if workload == "characterize":
        return characterize_body(workdir, seed, reduced=reduced)
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def populate(
    store: Path, workdir: Path, seed: int, *, reduced: bool = False
) -> Outcome:
    """Fill ``store`` with an inline sweep (the ``sweep_warm`` fixture)."""
    return sweep_body(workdir, store, seed, jobs=1, reduced=reduced)


def _import_program() -> None:
    """Import every program module a repetition uses (timed as set-up)."""
    import repro.analysis  # noqa: F401
    import repro.characterize  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.kernels  # noqa: F401


def _peak_rss_mb() -> float:
    """Max RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def child_main(request: dict) -> dict:
    """One repetition in this (fresh) process; returns the report."""
    started = time.perf_counter()
    _import_program()
    import_s = time.perf_counter() - started

    from repro import obs
    from repro.engine import get_worker_pool, shutdown_worker_pool

    workload = request["workload"]
    seed = int(request["seed"])
    workdir = Path(request["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    store = Path(request["store"]) if request.get("store") else None
    reduced = bool(request.get("reduced", False))
    report: dict = {"import_s": import_s, "pool_spawn_s": 0.0}

    if request["role"] == "warmup":
        return report
    if request["role"] == "populate":
        outcome = populate(store, workdir, seed, reduced=reduced)
        report.update(jobs=outcome.jobs, digest=outcome.digest, checks=outcome.checks)
        return report
    if workload == "sweep_cold":
        spawn_started = time.perf_counter()
        get_worker_pool(WORKERS)
        report["pool_spawn_s"] = time.perf_counter() - spawn_started
    report["ready"] = monotonic()

    session = obs.enable() if request.get("trace") else None
    worker_job_ms: list[float] = []
    with ExitStack() as stack:
        if session is not None:
            install_trace_hooks(stack, worker_job_ms)
        body_started = time.perf_counter()
        with obs.span("bench.body", workload=workload):
            outcome = run_body(workload, workdir, seed, store=store, reduced=reduced)
        report["body_s"] = time.perf_counter() - body_started
    if session is not None:
        session.tracer.write_jsonl(workdir / "trace.jsonl")
        session.metrics.write_json(workdir / "metrics.json")
        report["worker_job_ms"] = worker_job_ms
        obs.disable()
    shutdown_worker_pool()
    report.update(
        jobs=outcome.jobs,
        quarantined=outcome.quarantined,
        digest=outcome.digest,
        checks=outcome.checks,
        peak_rss_mb=_peak_rss_mb(),
    )
    return report


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    Path(request["result"]).write_text(json.dumps(child_main(request)))
