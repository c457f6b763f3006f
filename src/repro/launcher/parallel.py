"""Parallel execution models: process forking and OpenMP.

Forking (section 4.6): MicroLauncher "forks its execution into multiple
launchers, pins each to a separate core; after synchronization, it records
the time taken to execute the benchmark."  Every forked process runs the
*same* sequential kernel on its own arrays; what couples them is the
shared memory system — per-socket DRAM bandwidth divides among the
processes pinned there, which is the entire story of Fig. 14.

OpenMP (section 5.2.3): one kernel's trip count divides among threads;
every kernel invocation is a parallel region paying a fork/join overhead,
and the threads share socket bandwidth.  Amdahl on the region overhead
plus the bandwidth roofline reproduce Table 2's flat OpenMP column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
import statistics

from repro.launcher.arrays import ArrayAllocator
from repro.launcher.kernel_input import as_sim_kernel
from repro.launcher.measurement import Measurement
from repro.launcher.options import LauncherOptions
from repro.machine.noise import NoiseModel


@dataclass(slots=True, repr=False)
class ForkResult:
    """Outcome of a forked multi-core run."""

    per_core: list[Measurement] = field(default_factory=list)
    pinned_cores: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        # Summarized rather than the dataclass default (which would dump
        # every per-core Measurement), and total for the degraded case:
        # an all-quarantined campaign yields an empty co-run, where the
        # aggregate properties are NaN by contract — never an exception.
        return (
            f"ForkResult(n_cores={self.n_cores}, "
            f"cores={self.pinned_cores!r}, "
            f"mean_cpi={self.mean_cycles_per_iteration:.4g}, "
            f"max_cpi={self.max_cycles_per_iteration:.4g}, "
            f"spread={self.spread:.4g})"
        )

    @property
    def n_cores(self) -> int:
        return len(self.per_core)

    @property
    def mean_cycles_per_iteration(self) -> float:
        """NaN when no cores ran — an empty co-run has no timing at all."""
        if not self.per_core:
            return float("nan")
        return statistics.fmean(m.cycles_per_iteration for m in self.per_core)

    @property
    def max_cycles_per_iteration(self) -> float:
        """The slowest process — the completion time that matters for the
        synchronized co-run.  NaN when no cores ran."""
        if not self.per_core:
            return float("nan")
        return max(m.cycles_per_iteration for m in self.per_core)

    @property
    def spread(self) -> float:
        if not self.per_core:
            return float("nan")
        values = [m.cycles_per_iteration for m in self.per_core]
        lo = min(values)
        return (max(values) - lo) / lo if lo else 0.0


@dataclass(slots=True)
class OpenMPResult:
    """Outcome of an OpenMP-model run."""

    measurement: Measurement
    threads: int
    region_overhead_ns: float
    total_seconds: float

    @property
    def cycles_per_iteration(self) -> float:
        """Cycles per *global* loop iteration, the Fig. 17/18 Y axis.

        The measurement's loop iterations are per-thread; dividing the
        per-call time by the global iteration count lets the sequential
        and OpenMP series share an axis.
        """
        return self.measurement.cycles_per_iteration

    @property
    def min_cycles_per_iteration(self) -> float:
        return self.measurement.min_cycles_per_iteration

    @property
    def max_cycles_per_iteration(self) -> float:
        return self.measurement.max_cycles_per_iteration


def run_forked(launcher, kernel: object, options: LauncherOptions) -> ForkResult:
    """Run ``options.n_cores`` pinned copies of the kernel concurrently."""
    sim = as_sim_kernel(kernel, trip_count=options.trip_count)
    machine = launcher.machine
    pinned = launcher._pinned(options, options.n_cores)
    allocator = ArrayAllocator(sim, options)
    result = ForkResult(pinned_cores=pinned)
    for core_id in pinned:
        peers = machine.peers_on_socket(core_id, pinned)
        model = partial(
            launcher._request,
            sim,
            options,
            allocator.bindings(),
            core=core_id,
            n_cores=options.n_cores,
        )
        request = model(
            active_cores_on_socket=peers,
            extra_metadata={"socket": machine.socket_of(core_id), "peers": peers},
        )
        if not options.sync_start:
            # Unsynchronized processes overlap only partially: each
            # experiment sees a random number of concurrent peers, so the
            # measured contention is both lower and unstable — the reason
            # the launcher synchronizes before timing.
            rng = NoiseModel(seed=options.noise_seed + core_id).rng_for(0)
            ideal_at = {
                active: model(active_cores_on_socket=active).ideal_call_ns
                for active in range(1, peers + 1)
            }
            # Budget, not count: adaptive stopping may consume up to
            # max_experiments, and the ideals must cover the whole grid.
            per_experiment = [
                ideal_at[int(rng.integers(1, peers + 1))]
                for _ in range(options.experiment_budget)
            ]
            request = replace(request, per_experiment_ideal_ns=per_experiment)
        result.per_core.extend(launcher._replay([request], options, core_id))
    launcher._maybe_csv(options, result.per_core)
    return result


def run_openmp(launcher, kernel: object, options: LauncherOptions) -> OpenMPResult:
    """Run the kernel under the OpenMP execution model.

    The trip count splits evenly over ``options.omp_threads`` threads
    (static schedule); each kernel invocation is one parallel region and
    pays ``omp_region_overhead_ns`` for fork/join.  Threads are pinned one
    per core ("MicroLauncher lets the OpenMP runtime pin the threads on
    each separate core") and share socket bandwidth accordingly.
    """
    sim = as_sim_kernel(kernel, trip_count=options.trip_count)
    machine = launcher.machine
    threads = max(1, options.omp_threads)
    if threads > len(machine.cores):
        raise ValueError(
            f"{threads} threads exceed {launcher.config.name}'s "
            f"{len(machine.cores)} cores"
        )
    pinned = machine.pin_compact(threads)

    # Per-thread share of the global iteration space.
    global_iters = sim.loop_iterations_for(options.trip_count)
    per_thread_iters = max(1, -(-global_iters // threads))

    # The region runs at the pace of the slowest thread; with an even
    # split that is any thread on the most-contended socket.
    bindings = ArrayAllocator(sim, options).bindings()
    slowest = max(
        (
            launcher._request(
                sim,
                options,
                bindings,
                active_cores_on_socket=machine.peers_on_socket(core_id, pinned),
                core=None,
                n_cores=threads,
                extra_metadata={"omp_threads": threads},
                iterations=per_thread_iters,
            )
            for core_id in pinned
        ),
        key=lambda r: r.ideal_call_ns,
    )
    region_ns = options.omp_region_overhead_ns if threads > 1 else 0.0
    request = replace(slowest, ideal_call_ns=slowest.ideal_call_ns + region_ns)
    measurement = launcher._replay([request], options, threads)[0]
    launcher._maybe_csv(options, [measurement])
    return OpenMPResult(
        measurement=measurement,
        threads=threads,
        region_overhead_ns=region_ns,
        total_seconds=measurement.total_seconds,
    )
