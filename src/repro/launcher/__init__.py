"""MicroLauncher: the stable measurement harness (paper section 4).

MicroLauncher executes a benchmark program in a contained and controlled
environment: arrays allocated at controlled alignments, execution pinned
to cores, interrupts masked, caches heated, an inner repetition loop
inside an outer experiment loop, call overhead subtracted, results to CSV.

Because this reproduction measures a *simulated* machine (see DESIGN.md),
"executing" a kernel means: statically analyzing its loop, asking the
machine model for the steady-state iteration time, and replaying the
paper's Fig.-10 measurement algorithm against the simulated TSC with the
noise process applied — so every stabilization option has an observable
effect, exactly as on real hardware.

Entry point::

    from repro.launcher import MicroLauncher, LauncherOptions
    from repro.machine import nehalem_2s_x5650

    launcher = MicroLauncher(nehalem_2s_x5650())
    result = launcher.run(kernel, LauncherOptions(array_bytes=16 * 1024))
    print(result.cycles_per_iteration)
"""

from repro.launcher.options import LauncherOptions
from repro.launcher.arrays import AlignmentSweep, ArrayAllocator
from repro.launcher.kernel_input import KernelInputError, SimKernel, as_sim_kernel
from repro.launcher.measurement import (
    Measurement,
    MeasurementRequest,
    MeasurementSeries,
    run_measurement_batch,
)
from repro.launcher.launcher import MicroLauncher
from repro.launcher.parallel import ForkResult, OpenMPResult
from repro.launcher.stopping import bootstrap_ci
from repro.launcher.mpi import LinkModel, MPIResult, run_mpi
from repro.launcher.standalone import StandaloneResult, run_standalone
from repro.launcher.csvout import write_csv

__all__ = [
    "LauncherOptions",
    "AlignmentSweep",
    "ArrayAllocator",
    "KernelInputError",
    "SimKernel",
    "as_sim_kernel",
    "Measurement",
    "MeasurementRequest",
    "MeasurementSeries",
    "run_measurement_batch",
    "bootstrap_ci",
    "MicroLauncher",
    "ForkResult",
    "OpenMPResult",
    "LinkModel",
    "MPIResult",
    "run_mpi",
    "StandaloneResult",
    "run_standalone",
    "write_csv",
]
