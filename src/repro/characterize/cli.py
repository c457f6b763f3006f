"""The ``python -m repro.characterize`` command-line tool.

Three subcommands around one pipeline::

    python -m repro.characterize run --table itable.json --overlay ov.json
    python -m repro.characterize verify [--table itable.json]
    python -m repro.characterize diff [--table itable.json]

``run`` probes the machine and writes the solved instruction table (and
optionally the derived machine-config overlay, which ``microlauncher
--machine-overlay`` can apply).  ``verify`` re-predicts every probe
analytically on the derived config and exits non-zero if any lands
outside the tolerance; without ``--table`` it characterizes in memory
first, so a bare ``verify`` is a self-contained round-trip check.
``diff`` reports where the solved table disagrees with the modelled
semantics — empty on a simulated machine, the interesting output on a
real one.

Campaigns run through the engine, and the engine flags (``--jobs``,
``--cache-dir``, ``--resume``, ``--max-retries``, ``--job-timeout``) are
the ones ``microlauncher`` and ``microcreator`` declare, so they behave
exactly as there;
the solved table is byte-identical for every worker count and across a
kill/resume.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.launcher_cli import add_engine_args, engine_settings
from repro.engine import PoolUnusable
from repro.machine import PRESETS, preset
from repro.machine.serialize import MachineFileError, load_machine, save_overlay

from repro.characterize.driver import run_characterization
from repro.characterize.table import InstructionTable, TableFormatError
from repro.characterize.verify import table_drift, verify_table

PROG = "repro.characterize"


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        choices=sorted(PRESETS),
        default="nehalem-2s",
        help="machine preset to characterize (default: nehalem-2s)",
    )
    parser.add_argument(
        "--machine-file",
        metavar="JSON",
        default=None,
        help="custom machine description (overrides --machine)",
    )


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--opcodes",
        metavar="OP[,OP...]",
        default=None,
        help="probe only these opcodes (default: the full ISA)",
    )
    parser.add_argument(
        "--trip", type=int, default=None, metavar="N", help="probe trip count"
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S", help="campaign noise seed"
    )
    parser.add_argument(
        "--rciw-target",
        type=float,
        default=None,
        metavar="W",
        help="adaptive stopping target per probe (default: 0.01)",
    )
    parser.add_argument(
        "--max-experiments",
        type=int,
        default=None,
        metavar="N",
        help="adaptive cap per probe configuration (default: 32)",
    )
    add_engine_args(parser, gen_cache=False)
    parser.add_argument(
        "--progress", action="store_true", help="print campaign progress"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Characterize the simulated ISA: probe per-opcode "
        "latency/throughput/ports, solve an instruction table, and verify "
        "it round-trips through the analytic model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="probe the machine and write the table")
    _add_machine_args(run)
    _add_campaign_args(run)
    run.add_argument(
        "--table", metavar="JSON", default="itable.json",
        help="write the solved instruction table here (default: itable.json)",
    )
    run.add_argument(
        "--overlay", metavar="JSON", default=None,
        help="also write the derived machine-config overlay "
        "(apply with microlauncher --machine-overlay)",
    )

    verify = sub.add_parser(
        "verify", help="re-predict every probe on the derived config"
    )
    _add_machine_args(verify)
    _add_campaign_args(verify)
    verify.add_argument(
        "--table", metavar="JSON", default=None,
        help="verify this table (default: characterize in memory first)",
    )
    verify.add_argument(
        "--tolerance", type=float, default=None, metavar="T",
        help="relative error bound (default: the table's RCIW target)",
    )

    diff = sub.add_parser(
        "diff", help="report where the table disagrees with the modelled ISA"
    )
    _add_machine_args(diff)
    _add_campaign_args(diff)
    diff.add_argument(
        "--table", metavar="JSON", default=None,
        help="diff this table (default: characterize in memory first)",
    )

    return parser


def _machine_for(args):
    if args.machine_file is not None:
        return load_machine(args.machine_file)
    return preset(args.machine)


def _characterize(args, machine):
    from repro.characterize.driver import characterization_options

    opcodes = None
    if args.opcodes:
        opcodes = tuple(name.strip() for name in args.opcodes.split(",") if name.strip())
    kwargs = {}
    if args.trip is not None:
        kwargs["trip_count"] = args.trip
    if args.seed is not None:
        kwargs["noise_seed"] = args.seed
    options = characterization_options(
        rciw_target=args.rciw_target,
        max_experiments=args.max_experiments,
        **kwargs,
    )
    return run_characterization(
        machine,
        opcodes=opcodes,
        options=options,
        progress=print if args.progress else None,
        **engine_settings(args),
    )


def _table_for(args, machine) -> InstructionTable:
    if args.table is not None:
        return InstructionTable.load(args.table)
    return _characterize(args, machine).table


def _cmd_run(args) -> int:
    machine = _machine_for(args)
    result = _characterize(args, machine)
    table = result.table
    path = table.save(args.table)
    probed = table.probed_entries()
    print(
        f"characterized {len(probed)} of {len(table.entries)} opcodes on "
        f"{machine.name} ({result.run.stats.executed} jobs executed, "
        f"{result.run.stats.cache_hits} cached)"
    )
    print(f"wrote {path}")
    if args.overlay is not None:
        from repro.characterize.derive import derive_machine_config

        _, overlay = derive_machine_config(table, machine)
        print(f"wrote {save_overlay(overlay, args.overlay)}")
    return 0


def _cmd_verify(args) -> int:
    machine = _machine_for(args)
    table = _table_for(args, machine)
    report = verify_table(table, machine, tolerance=args.tolerance)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_diff(args) -> int:
    machine = _machine_for(args)
    table = _table_for(args, machine)
    drift = table_drift(table, machine)
    if not drift:
        print(f"no drift: {table.machine} matches the modelled semantics")
        return 0
    for line in drift:
        print(line)
    print(f"{len(drift)} difference(s) from the modelled semantics")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "verify": _cmd_verify, "diff": _cmd_diff}[args.command]
    try:
        return handler(args)
    except (MachineFileError, TableFormatError, PoolUnusable) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Degraded campaigns (quarantined probe jobs) and solver failures.
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 3
