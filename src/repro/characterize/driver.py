"""Characterization campaigns: probe plan -> campaign engine -> table.

The driver is a thin composition layer: it turns the probe plan from
:mod:`repro.characterize.probes` into one :class:`~repro.engine.Campaign`
and reuses the engine end to end — sharded result store, resume,
parallel dispatch and per-job derived noise seeds all behave exactly as
for any other campaign, which is what makes characterization runs
resumable and byte-identical across ``--jobs`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Campaign, CampaignRun, SweepSpec, machine_digest, run_campaign
from repro.launcher import LauncherOptions
from repro.launcher.stopping import probe_stopping_defaults
from repro.machine.config import MachineConfig

from repro.characterize.probes import all_probe_specs, build_probe
from repro.characterize.solve import solve_table
from repro.characterize.table import InstructionTable

#: Probe kernels have no memory streams, so a short trip count loses no
#: signal; it keeps the full-ISA campaign cheap enough for CI.
PROBE_TRIP_COUNT = 1024


@dataclass(frozen=True, slots=True)
class CharacterizationResult:
    """A finished characterization: the solved table plus the raw run."""

    table: InstructionTable
    run: CampaignRun


def characterization_options(
    *,
    trip_count: int = PROBE_TRIP_COUNT,
    noise_seed: int | None = None,
    rciw_target: float | None = None,
    max_experiments: int | None = None,
) -> LauncherOptions:
    """Launcher options for probe jobs: always adaptive.

    Unset knobs take the probe defaults from
    :func:`repro.launcher.stopping.probe_stopping_defaults`, not the
    fixed-count launcher defaults — a probe campaign's cost scales with
    the number of opcodes, so every job stops as soon as its relative
    confidence interval is tight enough.
    """
    stopping = probe_stopping_defaults(
        rciw_target=rciw_target, max_experiments=max_experiments
    )
    extra: dict[str, object] = {}
    if noise_seed is not None:
        extra["noise_seed"] = noise_seed
    return LauncherOptions(trip_count=trip_count, **stopping, **extra)


def characterization_campaign(
    machine: MachineConfig,
    *,
    opcodes: tuple[str, ...] | None = None,
    options: LauncherOptions | None = None,
) -> Campaign:
    """The probe campaign for ``machine`` (optionally a subset of opcodes)."""
    if options is None:
        options = characterization_options()
    specs = all_probe_specs(opcodes)
    kernels = tuple(build_probe(spec) for spec in specs)
    return Campaign(
        name=f"characterize-{machine.name}",
        machine=machine,
        sweeps=(
            SweepSpec(kernels=kernels, base=options, tags={"charact": "probe"}),
        ),
    )


def run_characterization(
    machine: MachineConfig,
    *,
    opcodes: tuple[str, ...] | None = None,
    options: LauncherOptions | None = None,
    **engine: object,
) -> CharacterizationResult:
    """Probe ``machine`` and solve the measurements into a table.

    ``engine`` holds ``run_campaign`` keywords (``jobs``, ``cache_dir``,
    ``resume``, ``progress``, ...), forwarded unchanged.

    Raises
    ------
    ValueError
        If quarantined jobs leave an opcode's probe pair incomplete —
        a degraded run cannot be solved into a trustworthy table (the
        CampaignRun's failures are listed in the message).
    """
    if options is None:
        options = characterization_options()
    campaign = characterization_campaign(machine, opcodes=opcodes, options=options)
    run = run_campaign(campaign, **engine)
    if run.failures:
        failed = ", ".join(f.kernel for f in run.failures)
        raise ValueError(
            f"characterization degraded: {len(run.failures)} probe job(s) "
            f"quarantined ({failed}); cannot solve a partial table"
        )
    table = solve_table(
        run.measurements(),
        machine=machine,
        machine_digest=machine_digest(machine),
        rciw_target=options.rciw_target,
        noise_seed=options.noise_seed,
        trip_count=options.trip_count,
    )
    return CharacterizationResult(table=table, run=run)
