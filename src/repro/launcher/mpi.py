"""MPI-style execution model (paper future work).

Section 7 lists "fully supporting every OpenMP/MPI constructs" as future
work for MicroCreator/MicroLauncher; this module adds the MPI side of the
execution model, complementing :mod:`repro.launcher.parallel`'s fork and
OpenMP modes.

The model: ``mpi_ranks`` single-threaded processes, pinned like a forked
run, each executing the kernel on its own arrays (the HPC
process-per-core profile).  After every kernel invocation each rank
exchanges a halo of ``mpi_message_bytes`` with its two ring neighbours —
the canonical stencil communication pattern.  A message costs::

    latency + bytes / bandwidth

with different (latency, bandwidth) for intra-socket (shared L3) and
inter-socket (QPI-class link) neighbour pairs, so compact pinning
communicates faster but saturates memory earlier — the same placement
trade-off the fork experiments expose, now with a communication term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import statistics

from repro.launcher.arrays import ArrayAllocator
from repro.launcher.kernel_input import as_sim_kernel
from repro.launcher.measurement import Measurement
from repro.launcher.options import LauncherOptions


@dataclass(frozen=True, slots=True)
class LinkModel:
    """Point-to-point message costs by neighbour placement."""

    intra_socket_latency_ns: float = 600.0
    intra_socket_bandwidth: float = 8.0  # bytes / ns
    inter_socket_latency_ns: float = 1400.0
    inter_socket_bandwidth: float = 4.0

    def message_ns(self, nbytes: int, *, same_socket: bool) -> float:
        if nbytes <= 0:
            return 0.0
        if same_socket:
            return self.intra_socket_latency_ns + nbytes / self.intra_socket_bandwidth
        return self.inter_socket_latency_ns + nbytes / self.inter_socket_bandwidth


@dataclass(slots=True)
class MPIResult:
    """Outcome of an MPI-model run."""

    per_rank: list[Measurement] = field(default_factory=list)
    pinned_cores: list[int] = field(default_factory=list)
    communication_ns_per_call: float = 0.0
    compute_ns_per_call: float = 0.0

    @property
    def n_ranks(self) -> int:
        return len(self.per_rank)

    @property
    def mean_cycles_per_iteration(self) -> float:
        return statistics.fmean(m.cycles_per_iteration for m in self.per_rank)

    @property
    def communication_fraction(self) -> float:
        total = self.communication_ns_per_call + self.compute_ns_per_call
        return self.communication_ns_per_call / total if total else 0.0


def run_mpi(
    launcher,
    kernel: object,
    options: LauncherOptions,
    *,
    ranks: int,
    message_bytes: int = 0,
    link: LinkModel | None = None,
) -> MPIResult:
    """Run ``ranks`` pinned MPI processes with ring halo exchange.

    Every rank computes its own copy of the kernel (weak scaling, like
    the paper's forked runs) and then exchanges ``message_bytes`` with
    each ring neighbour; the exchange serializes after the compute, so
    the per-call time is ``compute + slowest neighbour exchange``.
    """
    link = link or LinkModel()
    sim = as_sim_kernel(kernel, trip_count=options.trip_count)
    machine = launcher.machine
    pinned = launcher._pinned(options, ranks)
    allocator = ArrayAllocator(sim, options)

    result = MPIResult(pinned_cores=pinned)
    for rank, core_id in enumerate(pinned):
        comm_ns = 0.0
        if ranks > 1 and message_bytes > 0:
            for neighbour in ((rank - 1) % ranks, (rank + 1) % ranks):
                same = machine.socket_of(pinned[neighbour]) == machine.socket_of(core_id)
                comm_ns = max(
                    comm_ns, link.message_ns(message_bytes, same_socket=same)
                )
        request = launcher._request(
            sim,
            options,
            allocator.bindings(),
            active_cores_on_socket=machine.peers_on_socket(core_id, pinned),
            core=core_id,
            n_cores=ranks,
            extra_metadata={
                "rank": rank,
                "socket": machine.socket_of(core_id),
                "comm_ns": comm_ns,
            },
        )
        compute_ns = request.ideal_call_ns
        request = replace(request, ideal_call_ns=compute_ns + comm_ns)
        result.per_rank.extend(launcher._replay([request], options, 1000 + core_id))
        result.compute_ns_per_call = max(result.compute_ns_per_call, compute_ns)
        result.communication_ns_per_call = max(
            result.communication_ns_per_call, comm_ns
        )
    launcher._maybe_csv(options, result.per_rank)
    return result
