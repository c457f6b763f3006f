"""The MicroLauncher front-end."""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.launcher.arrays import AlignmentSweep, ArrayAllocator
from repro.launcher.csvout import write_csv
from repro.launcher.kernel_input import SimKernel, as_sim_kernel
from repro.launcher.measurement import (
    Measurement,
    MeasurementRequest,
    MeasurementSeries,
    run_measurement_batch,
)
from repro.launcher.options import LauncherOptions
from repro.machine.config import MachineConfig, nehalem_2s_x5650
from repro.machine.kernel_model import ArrayBinding
from repro.machine.noise import NoiseModel
from repro.machine.pipeline import estimate_iteration_time
from repro.machine.topology import Machine


class MicroLauncher:
    """Executes benchmark programs in a contained, controlled environment.

    Parameters
    ----------
    machine:
        The simulated machine (defaults to the dual-socket Nehalem behind
        most of the paper's figures).
    noise:
        The environmental-noise process; defaults to a model seeded from
        each run's ``noise_seed`` option, so results are reproducible per
        configuration.
    """

    def __init__(
        self, machine: MachineConfig | None = None, *, noise: NoiseModel | None = None
    ) -> None:
        self.config = machine or nehalem_2s_x5650()
        self.machine = Machine(self.config)
        self._noise_override = noise

    # ------------------------------------------------------------------ #
    # sequential execution                                                 #
    # ------------------------------------------------------------------ #

    def run(
        self,
        kernel: object,
        options: LauncherOptions | None = None,
        *,
        active_cores_on_socket: int = 1,
        noise_salt: int = 0,
    ) -> Measurement:
        """Measure one kernel configuration (sequential, pinned).

        The run follows the paper's flow: normalize the input (section
        4.1), allocate and align arrays, pin to ``options.core``, heat the
        caches, run the Fig.-10 loops, and report cycles per iteration.
        """
        options = options or LauncherOptions()
        sim = as_sim_kernel(kernel, trip_count=options.trip_count)
        bindings = ArrayAllocator(sim, options).bindings()
        measurement = self._measure(
            sim,
            options,
            bindings,
            active_cores_on_socket=active_cores_on_socket,
            core=options.core if options.pin else None,
            noise_salt=noise_salt,
        )
        self._maybe_csv(options, [measurement])
        return measurement

    def run_with_bindings(
        self,
        kernel: object,
        bindings: dict[str, ArrayBinding],
        options: LauncherOptions | None = None,
        *,
        active_cores_on_socket: int = 1,
        noise_salt: int = 0,
    ) -> Measurement:
        """Measure with caller-supplied array bindings.

        For studies that know residence better than the footprint rule
        does — the matmul analysis binds each stream to the level its
        reuse distance dictates.
        """
        options = options or LauncherOptions()
        sim = as_sim_kernel(kernel, trip_count=options.trip_count)
        measurement = self._measure(
            sim,
            options,
            bindings,
            active_cores_on_socket=active_cores_on_socket,
            core=options.core if options.pin else None,
            alignments=tuple(b.alignment for b in bindings.values()),
            noise_salt=noise_salt,
        )
        self._maybe_csv(options, [measurement])
        return measurement

    def run_batch(
        self,
        kernels: object,
        options: LauncherOptions | None = None,
        *,
        active_cores_on_socket: int = 1,
        noise_salt: int = 0,
    ) -> MeasurementSeries:
        """Measure many kernel configurations in one vectorized sweep.

        The batched equivalent of ``[self.run(k, options) for k in
        kernels]`` — every kernel is normalized and modelled
        individually, then the whole family replays the Fig.-10 loops in
        a single :func:`~repro.launcher.measurement.run_measurement_batch`
        call sharing one noise context.  Results are bit-identical to the
        sequential loop; wall-clock is dominated by the model evaluation
        instead of per-measurement noise-stream setup.
        """
        options = options or LauncherOptions()
        with obs.span("launcher.run_batch") as batch_span:
            requests = []
            with obs.span("launcher.normalize", metric="launcher.model.duration_ms"):
                for kernel in kernels:
                    sim = as_sim_kernel(kernel, trip_count=options.trip_count)
                    bindings = ArrayAllocator(sim, options).bindings()
                    requests.append(
                        self._request(
                            sim,
                            options,
                            bindings,
                            active_cores_on_socket=active_cores_on_socket,
                            core=options.core if options.pin else None,
                        )
                    )
            batch_span.set(batch=len(requests))
            measurements = self._replay(requests, options, noise_salt)
        self._maybe_csv(options, measurements)
        return MeasurementSeries(measurements)

    def run_alignment_sweep(
        self,
        kernel: object,
        options: LauncherOptions | None = None,
        *,
        active_cores_on_socket: int = 1,
    ) -> MeasurementSeries:
        """Measure every alignment configuration of the sweep range.

        "When considering alignments, MicroLauncher tests a variety of
        alignment settings for each allocated array" (section 5.2.2).
        ``active_cores_on_socket`` models the sweep running as one process
        of a multi-core co-run (Figs. 15/16 sweep alignments while 8 or 32
        cores execute the kernel).
        """
        options = options or LauncherOptions()
        sim = as_sim_kernel(kernel, trip_count=options.trip_count)
        allocator = ArrayAllocator(sim, options)
        sweep = AlignmentSweep(n_arrays=sim.n_arrays, options=options)
        series = MeasurementSeries()
        for config_id, alignments in enumerate(sweep.configurations()):
            bindings = allocator.bindings(alignments)
            m = self._measure(
                sim,
                options,
                bindings,
                active_cores_on_socket=active_cores_on_socket,
                core=options.core if options.pin else None,
                alignments=alignments,
                noise_salt=config_id,
                extra_metadata={"alignment_config": config_id},
            )
            series.append(m)
        self._maybe_csv(options, list(series))
        return series

    # ------------------------------------------------------------------ #
    # internals                                                            #
    # ------------------------------------------------------------------ #

    def _noise_for(self, options: LauncherOptions, salt: int) -> NoiseModel:
        if self._noise_override is not None:
            return self._noise_override
        return NoiseModel(seed=options.noise_seed + salt)

    def _pinned(self, options: LauncherOptions, n: int) -> list[int]:
        """The ``n`` cores a multi-process run pins to, by ``pin_policy``."""
        if options.pin_policy == "compact":
            return self.machine.pin_compact(n)
        return self.machine.pin_scatter(n)

    def _request(
        self,
        sim: SimKernel,
        options: LauncherOptions,
        bindings: dict[str, ArrayBinding],
        *,
        active_cores_on_socket: int,
        core: int | None,
        alignments: tuple[int, ...] = (),
        n_cores: int = 1,
        extra_metadata: dict[str, object] | None = None,
        iterations: int | None = None,
    ) -> MeasurementRequest:
        """Evaluate the machine model for one configuration.

        Everything up to (but excluding) the noisy Fig.-10 replay: the
        noise-free half of a measurement, batchable across a sweep.  The
        one model path of every execution mode: it resolves residences
        (``residence_mode``), evaluates the per-iteration time with
        ``active_cores_on_socket`` sharing the socket, and attaches the
        evaluation library's counters (``eval_library``).
        ``iterations`` is how many loop iterations one call's ideal
        covers — the kernel's full loop by default, one thread's share
        under OpenMP — while ``loop_iterations`` stays the full loop.
        """
        freq = options.frequency_ghz or self.config.freq_ghz
        if options.residence_mode != "footprint":
            from repro.launcher.residence import derive_residences

            bindings = derive_residences(
                sim, bindings, self.config, mode=options.residence_mode
            )
        timing = estimate_iteration_time(
            sim.analysis,
            bindings,
            self.config,
            active_cores_on_socket=active_cores_on_socket,
        )
        iter_ns = timing.time_ns(freq)
        loop_iters = sim.loop_iterations_for(options.trip_count)
        call_iters = loop_iters if iterations is None else iterations
        metadata = dict(sim.metadata)
        metadata.update(extra_metadata or {})
        if options.eval_library != "rdtsc":
            from repro.launcher.evallib import eval_library

            metadata["counters"] = eval_library(options.eval_library).counters(
                sim.analysis, bindings, self.config, call_iters
            )
        return MeasurementRequest(
            ideal_call_ns=iter_ns * call_iters,
            kernel_name=sim.name,
            loop_iterations=loop_iters,
            elements_per_iteration=sim.elements_per_iteration,
            n_memory_instructions=sim.analysis.n_loads + sim.analysis.n_stores,
            alignments=alignments,
            core=core,
            n_cores=n_cores,
            bottleneck=timing.bottleneck,
            metadata=metadata,
        )

    def _replay(
        self,
        requests: list[MeasurementRequest],
        options: LauncherOptions,
        noise_salt: int,
    ) -> list[Measurement]:
        """Replay the Fig.-10 loops for modelled configurations sharing
        one noise context — every entry point's measurement step."""
        obs.observe("launcher.batch.size", len(requests), bounds=obs.SIZE_BUCKETS)
        with obs.span("launcher.measure", metric="launcher.sim.duration_ms"):
            return run_measurement_batch(
                requests,
                options=options,
                freq_ghz=options.frequency_ghz or self.config.freq_ghz,
                tsc_ghz=self.config.freq_ghz,
                noise=self._noise_for(options, noise_salt),
            )

    def _measure(
        self,
        sim: SimKernel,
        options: LauncherOptions,
        bindings: dict[str, ArrayBinding],
        *,
        active_cores_on_socket: int,
        core: int | None,
        alignments: tuple[int, ...] = (),
        noise_salt: int = 0,
        extra_metadata: dict[str, object] | None = None,
    ) -> Measurement:
        # A batch of one: same span vocabulary as run_batch so traces
        # aggregate by name no matter which entry point ran the kernel.
        with obs.span("launcher.run_batch", batch=1):
            with obs.span(
                "launcher.normalize", metric="launcher.model.duration_ms"
            ):
                request = self._request(
                    sim,
                    options,
                    bindings,
                    active_cores_on_socket=active_cores_on_socket,
                    core=core,
                    alignments=alignments,
                    extra_metadata=extra_metadata,
                )
            return self._replay([request], options, noise_salt)[0]

    def _maybe_csv(self, options: LauncherOptions, measurements: list[Measurement]) -> None:
        if options.csv_path:
            write_csv(
                Path(options.csv_path),
                measurements,
                full=options.csv_full,
                append=True,
            )

    # ------------------------------------------------------------------ #
    # parallel execution (delegates)                                       #
    # ------------------------------------------------------------------ #

    def run_forked(self, kernel: object, options: LauncherOptions | None = None):
        """Fork-model multi-core run (section 4.6); see
        :func:`repro.launcher.parallel.run_forked`."""
        from repro.launcher.parallel import run_forked

        return run_forked(self, kernel, options or LauncherOptions())

    def run_openmp(self, kernel: object, options: LauncherOptions | None = None):
        """OpenMP-model run (section 5.2.3); see
        :func:`repro.launcher.parallel.run_openmp`."""
        from repro.launcher.parallel import run_openmp

        return run_openmp(self, kernel, options or LauncherOptions())

    def run_standalone(self, work, options: LauncherOptions | None = None, *, name: str = "standalone"):
        """Fork/pin/synchronize/time a standalone application (section
        4.1); see :func:`repro.launcher.standalone.run_standalone`."""
        from repro.launcher.standalone import run_standalone

        return run_standalone(self, work, options, name=name)

    def run_mpi(
        self,
        kernel: object,
        options: LauncherOptions | None = None,
        *,
        ranks: int,
        message_bytes: int = 0,
        link=None,
    ):
        """MPI-model run (paper future work); see
        :func:`repro.launcher.mpi.run_mpi`."""
        from repro.launcher.mpi import run_mpi

        return run_mpi(
            self,
            kernel,
            options or LauncherOptions(),
            ranks=ranks,
            message_bytes=message_bytes,
            link=link,
        )
