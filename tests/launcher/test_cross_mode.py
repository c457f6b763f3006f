"""Every execution mode honours the model options the sequential run does.

Forked, OpenMP and MPI runs build their configurations through the same
model path as ``MicroLauncher.run``, so ``residence_mode`` and
``eval_library`` apply whatever the mode.  With one core, thread or rank
there is no contention and no communication, so each mode must
reproduce the sequential number to within its own noise.
"""

from __future__ import annotations

import pytest

from repro.engine import Campaign, SweepSpec, run_campaign
from repro.kernels import multi_array_traversal
from repro.launcher import LauncherOptions
from repro.machine import MemLevel

MODES = {
    "forked": lambda launcher, kernel, options: launcher.run_forked(
        kernel, options.with_(n_cores=1)
    ).per_core[0],
    "openmp": lambda launcher, kernel, options: launcher.run_openmp(
        kernel, options.with_(omp_threads=1)
    ).measurement,
    "mpi": lambda launcher, kernel, options: launcher.run_mpi(
        kernel, options, ranks=1
    ).per_rank[0],
}


@pytest.fixture(scope="module")
def joint_kernel():
    """Two arrays that jointly overflow L1: the trace policy demotes them,
    the footprint rule does not (the ``ablation_residence`` case)."""
    from repro.creator import MicroCreator

    return MicroCreator().generate(
        multi_array_traversal(2, "movaps", unroll=(4, 4))
    )[0]


@pytest.fixture()
def joint_options(nehalem):
    return LauncherOptions(
        array_bytes=3 * nehalem.cache(MemLevel.L1).size_bytes // 4,
        trip_count=1 << 14,
        experiments=3,
        repetitions=4,
    )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_trace_residence_applies_in_every_mode(
    launcher, joint_kernel, joint_options, mode
):
    trace = joint_options.with_(residence_mode="trace")
    sequential = launcher.run(joint_kernel, trace).cycles_per_iteration
    got = MODES[mode](launcher, joint_kernel, trace).cycles_per_iteration
    footprint = MODES[mode](launcher, joint_kernel, joint_options)
    assert got == pytest.approx(sequential, rel=0.01)
    assert got > 1.1 * footprint.cycles_per_iteration


@pytest.mark.parametrize("mode", sorted(MODES))
def test_event_counters_attached_in_every_mode(
    launcher, joint_kernel, joint_options, mode
):
    events = joint_options.with_(eval_library="events")
    assert MODES[mode](launcher, joint_kernel, events).counters


def test_forked_campaign_sweeps_residence_mode(nehalem, joint_kernel, joint_options):
    sweep = SweepSpec(
        kernels=(joint_kernel,),
        base=joint_options.with_(n_cores=1),
        axes={"residence_mode": ("footprint", "trace")},
        mode="forked",
    )
    run = run_campaign(Campaign(name="residence", machine=nehalem, sweeps=(sweep,)))
    footprint, trace = (m.cycles_per_iteration for m in run.measurements())
    assert trace > 1.1 * footprint
