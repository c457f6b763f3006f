"""The ``microcreator`` command-line tool.

Reads a kernel-description XML file and writes one assembly (or C) file
per generated variant::

    microcreator kernel.xml -o generated/
    microcreator kernel.xml --list
    microcreator kernel.xml --random 20 --seed 7 -o sample/
    microcreator kernel.xml --plugin my_passes.py -o out/
    microcreator kernel.xml --measure --machine nehalem-2s --jobs 4

``--measure`` runs every generated variant through the campaign engine
and writes a results file instead of assembly.

``--trace FILE`` and ``--metrics-out FILE`` turn on the observability
layer: one span per pass of the pipeline (plus engine/launcher spans
under ``--measure``) and a metrics snapshot, both readable by
``python -m repro.obs.report``.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.launcher_cli import (
    _report_failures,
    add_engine_args,
    engine_settings,
    run_observed,
)
from repro.creator import CreatorOptions, MicroCreator
from repro.engine import PoolUnusable
from repro.spec import SpecParseError, parse_spec_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microcreator",
        description="Generate microbenchmark program variants from a kernel "
        "description (XML).",
    )
    parser.add_argument("input", help="kernel description XML file")
    parser.add_argument(
        "-o", "--output", default=None, help="directory to write variants into"
    )
    parser.add_argument(
        "--language",
        choices=("asm", "c"),
        default="asm",
        help="output language (default: asm)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print variant names and metadata instead of writing files",
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="cap the number of generated variants"
    )
    parser.add_argument(
        "--random",
        type=int,
        default=None,
        metavar="K",
        help="randomly keep K variants after instruction selection",
    )
    parser.add_argument("--seed", type=int, default=0, help="random-selection seed")
    parser.add_argument(
        "--schedule",
        action="store_true",
        help="enable the scheduling pass (interleave induction updates)",
    )
    parser.add_argument(
        "--plugin",
        action="append",
        default=[],
        metavar="FILE.py",
        help="load a plugin (pluginInit) before generating; repeatable",
    )
    parser.add_argument(
        "--show",
        metavar="VARIANT",
        default=None,
        help="print one variant's code (by name or index) and exit",
    )
    parser.add_argument(
        "--measure",
        action="store_true",
        help="measure every generated variant through the campaign engine",
    )
    parser.add_argument(
        "--machine",
        default="nehalem-2s",
        help="with --measure: machine preset (default: nehalem-2s)",
    )
    parser.add_argument(
        "--machine-overlay",
        metavar="JSON",
        default=None,
        help="with --measure: apply a machine-config overlay (e.g. one "
        "derived by `python -m repro.characterize run`) on top of the "
        "preset",
    )
    parser.add_argument(
        "--array-bytes",
        type=int,
        default=16 * 1024,
        help="with --measure: bytes per array",
    )
    parser.add_argument(
        "--trip", type=int, default=4096, help="with --measure: trip count n"
    )
    parser.add_argument(
        "--rciw-target",
        type=float,
        default=None,
        metavar="W",
        help="with --measure: adaptive stopping — batch experiments until "
        "the bootstrapped relative CI width of cycles/iteration is <= W, "
        "or --max-experiments is reached (unset/0 = fixed count)",
    )
    parser.add_argument(
        "--max-experiments",
        type=int,
        default=None,
        metavar="N",
        help="with --measure --rciw-target: cap on experiments per "
        "configuration (default: 64)",
    )
    add_engine_args(parser)
    parser.add_argument(
        "--format",
        dest="result_format",
        choices=("csv", "jsonl"),
        default="csv",
        help="with --measure: results file format (default: csv)",
    )
    parser.add_argument(
        "--results",
        metavar="PATH",
        default=None,
        help="with --measure: results file (default: results.csv / results.jsonl)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the run (pass pipeline, engine, "
        "launcher); summarize with `python -m repro.obs.report`",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a JSON metrics snapshot (counters/gauges/histograms)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = parse_spec_file(args.input)
    except (SpecParseError, OSError) as exc:
        print(f"microcreator: {exc}", file=sys.stderr)
        return 2
    try:
        return run_observed(args, lambda: _observed_main(args, spec))
    except PoolUnusable as exc:  # a --job-timeout run without workers
        print(f"microcreator: {exc}", file=sys.stderr)
        return 2


def _observed_main(args, spec) -> int:
    """Everything after spec parsing (observability already decided)."""
    options = CreatorOptions(
        random_selection=args.random,
        seed=args.seed,
        max_benchmarks=args.limit,
        schedule=args.schedule,
    )
    creator = MicroCreator(options, plugins=args.plugin)

    if args.measure:
        return _measure(args, creator, spec)

    if args.show is not None or args.list:
        kernels = creator.generate(spec)
        print(f"generated {len(kernels)} variants from {args.input}")
        if args.show is not None:
            selected = None
            if args.show.isdigit():
                index = int(args.show)
                if 0 <= index < len(kernels):
                    selected = kernels[index]
            else:
                selected = next((k for k in kernels if k.name == args.show), None)
            if selected is None:
                print(f"microcreator: no variant {args.show!r}", file=sys.stderr)
                return 2
            text = selected.asm_text(full_file=True) if args.language == "asm" else selected.c_text()
            print(text)
            return 0
        for k in kernels:
            print(f"  {k.name}  unroll={k.unroll} mix={k.mix or '-'} "
                  f"loads={k.n_loads} stores={k.n_stores}")
        return 0

    if args.output is None:
        print("microcreator: use -o DIR to write variants, --list to inspect",
              file=sys.stderr)
        return 2
    count = len(
        creator.write_all(creator.generate(spec), args.output, language=args.language)
    )
    print(f"generated {count} variants from {args.input}")
    print(f"wrote {count} files to {args.output}")
    return 0


def _measure(args, creator: MicroCreator, spec) -> int:
    """Generate the spec's variants and measure them as one campaign."""
    from repro.engine import Campaign, SweepSpec, run_campaign
    from repro.launcher import LauncherOptions
    from repro.machine import PRESETS, preset

    if args.machine not in PRESETS:
        print(f"microcreator: unknown machine {args.machine!r}; "
              f"have {sorted(PRESETS)}", file=sys.stderr)
        return 2
    machine = preset(args.machine)
    if args.machine_overlay is not None:
        from repro.machine.serialize import (
            MachineFileError,
            apply_machine_overlay,
            load_overlay,
        )

        try:
            machine = apply_machine_overlay(
                machine, load_overlay(args.machine_overlay)
            )
        except MachineFileError as exc:
            print(f"microcreator: {exc}", file=sys.stderr)
            return 2
    from repro.launcher.stopping import adaptive_overrides

    base = LauncherOptions(
        array_bytes=args.array_bytes,
        trip_count=args.trip,
        **adaptive_overrides(
            rciw_target=args.rciw_target,
            max_experiments=args.max_experiments,
        ),
    )
    if args.plugin:
        # Plugin passes rewrite the pipeline in this process only; worker
        # processes could not reconstruct them, so ship rendered kernels.
        sweep = SweepSpec(kernels=tuple(creator.generate(spec)), base=base)
    else:
        # Spec-backed sweep: workers regenerate variants locally from the
        # (spec, options) pair instead of receiving pickled programs.
        sweep = SweepSpec(spec=spec, base=base, creator_options=creator.options)
    campaign = Campaign(
        name=spec.name,
        machine=machine,
        sweeps=(sweep,),
    )
    run = run_campaign(campaign, progress=print, **engine_settings(args))
    results = args.results or f"results.{args.result_format}"
    if args.result_format == "jsonl":
        out = run.write_jsonl(results)
    else:
        out = run.write_csv(results)
    print(f"wrote {len(run.measurements())} measurements to {out}")
    return _report_failures("microcreator", run)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
