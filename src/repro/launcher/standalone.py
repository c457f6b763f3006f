"""Standalone-program mode (paper section 4.1).

"A second input type is a stand-alone program.  In the case of an
application, MicroLauncher forks its execution to run the program as a
stand-alone application and times it.  The advantage of using
MicroLauncher is the multi-core aspect.  MicroLauncher internally pins
the processes on various cores and synchronizes before executing the
application."

In the simulation a standalone application is anything that can state
its ideal duration: a plain number of nanoseconds, or a callable
``(machine_config, active_cores_on_socket) -> ns`` so the application's
runtime can respond to contention (which is what makes co-running
interesting).  The launcher adds what it adds on real hardware: pinning,
synchronization, the noise environment, and repeated timed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from repro.launcher.measurement import Measurement, MeasurementRequest
from repro.launcher.options import LauncherOptions

#: A standalone application: fixed duration, or contention-aware callable.
AppWork = Union[float, int, Callable[[object, int], float]]


@dataclass(slots=True)
class StandaloneResult:
    """Outcome of a (possibly multi-core) standalone run."""

    per_process: list[Measurement] = field(default_factory=list)
    pinned_cores: list[int] = field(default_factory=list)

    @property
    def n_processes(self) -> int:
        return len(self.per_process)

    @property
    def max_seconds(self) -> float:
        """Completion time of the synchronized co-run."""
        return max(m.total_seconds for m in self.per_process)

    @property
    def slowdown(self) -> float:
        """Slowest over fastest process — the co-run interference figure."""
        times = [m.total_seconds for m in self.per_process]
        return max(times) / min(times) if min(times) else 0.0


def _work_ns(work: AppWork, machine_config, peers: int) -> float:
    if callable(work):
        duration = float(work(machine_config, peers))
    else:
        duration = float(work)
    if duration <= 0:
        raise ValueError("standalone application duration must be positive")
    return duration


def run_standalone(
    launcher,
    work: AppWork,
    options: LauncherOptions | None = None,
    *,
    name: str = "standalone",
) -> StandaloneResult:
    """Fork, pin, synchronize and time a standalone application.

    ``options.n_cores`` copies run concurrently (one per pinned core);
    each process is measured with the usual outer experiment loop.  The
    kernel-ABI iteration accounting does not apply — ``loop_iterations``
    is 1 and the interesting outputs are wall-clock seconds.
    """
    options = options or LauncherOptions()
    machine = launcher.machine
    n = max(1, options.n_cores)
    pinned = launcher._pinned(options, n)
    result = StandaloneResult(pinned_cores=pinned)
    for core_id in pinned:
        peers = machine.peers_on_socket(core_id, pinned)
        request = MeasurementRequest(
            ideal_call_ns=_work_ns(work, launcher.config, peers),
            kernel_name=name,
            loop_iterations=1,
            elements_per_iteration=1,
            n_memory_instructions=0,
            core=core_id,
            n_cores=n,
            bottleneck="standalone",
            metadata={"socket": machine.socket_of(core_id), "peers": peers},
        )
        result.per_process.extend(
            launcher._replay([request], options, 2000 + core_id)
        )
    launcher._maybe_csv(options, result.per_process)
    return result
