"""The ``microlauncher`` command-line tool.

Measures a kernel on a simulated machine::

    microlauncher kernel.s --machine nehalem-2s --array-bytes 65536
    microlauncher kernel.s --fork 8
    microlauncher kernel.s --openmp 4 --trip 6000000
    microlauncher kernel.s --alignment-sweep --csv sweep.csv
    microlauncher kernel.s --jobs 4 --cache-dir .cache --csv out.csv
    microlauncher --exhibit fig14 --jobs 4   # regenerate a paper exhibit
    microlauncher --list-exhibits

Every kernel run is a one-sweep campaign through the campaign engine, so
a run's numbers do not depend on the engine flags: ``--cache-dir``
caches measurements by content hash and makes the run resumable
(``--no-resume`` forces re-measurement), and ``--jobs`` only changes
where the jobs execute.  Failing jobs retry up to ``--max-retries``
times and hung jobs are bounded by ``--job-timeout`` (which runs jobs in
worker processes, even at ``--jobs 1``, and exits 2 where none can be
spawned); a job that keeps failing is quarantined — the run completes
degraded and exits 3.
``--csv`` appends every measured row (``--output jsonl`` writes one
JSON line per row instead).

``--trace FILE`` and ``--metrics-out FILE`` turn on the observability
layer for the run: a JSONL span trace of where the time went and a JSON
metrics snapshot (cache traffic, retries, histograms), both readable by
``python -m repro.obs.report``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.analysis import available_experiments, run_experiment
from repro.analysis.experiments import UnsupportedSetting
from repro.engine import Campaign, PoolUnusable, SweepSpec, run_campaign
from repro.launcher import LauncherOptions
from repro.launcher.csvout import write_csv
from repro.launcher.stopping import adaptive_overrides
from repro.machine import PRESETS, preset


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The campaign-engine flags ``microlauncher`` and ``microcreator`` share."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for campaign execution (default: 1, inline)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache measurements by content hash; re-runs skip finished jobs",
    )
    parser.add_argument(
        "--gen-cache",
        metavar="DIR",
        default=None,
        help="persist generated variants for spec-backed sweeps "
        "(--exhibit runs, microcreator --measure): repeated campaigns "
        "skip the generation pipeline entirely",
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached results (--no-resume re-measures everything)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="failed attempts a job may retry before it is quarantined "
        "(default: 2); a quarantined job drops its rows and exits 3",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job; a chunk past its budget is "
        "killed and its jobs retried (default: no timeout). A timed run "
        "needs worker processes, even at --jobs 1, and exits 2 where "
        "they cannot be spawned",
    )


def engine_settings(args: argparse.Namespace) -> dict[str, object]:
    """The :func:`add_engine_args` flags as ``run_campaign`` keywords."""
    return {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "resume": args.resume,
        "max_retries": args.max_retries,
        "job_timeout": args.job_timeout,
        "gen_cache_dir": args.gen_cache,
    }


def run_observed(args: argparse.Namespace, body: Callable[[], int]) -> int:
    """Run ``body``, inside an obs session if ``--trace``/``--metrics-out`` ask."""
    if not (args.trace or args.metrics_out):
        return body()
    from repro import obs

    obs.enable()
    try:
        return body()
    finally:
        session = obs.session()
        if args.trace:
            print(f"wrote trace to {session.tracer.write_jsonl(args.trace)}")
        if args.metrics_out:
            print(f"wrote metrics to {session.metrics.write_json(args.metrics_out)}")
        obs.disable()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microlauncher",
        description="Execute a microbenchmark kernel in a stable, simulated "
        "environment and report cycles per iteration.",
    )
    parser.add_argument("kernel", nargs="?", help="assembly (.s) kernel file")
    parser.add_argument(
        "--machine",
        choices=sorted(PRESETS),
        default="nehalem-2s",
        help="machine preset (default: nehalem-2s)",
    )
    parser.add_argument(
        "--machine-file",
        metavar="JSON",
        default=None,
        help="custom machine description (overrides --machine)",
    )
    parser.add_argument(
        "--machine-overlay",
        metavar="JSON",
        default=None,
        help="apply a machine-config overlay (e.g. one derived by "
        "`python -m repro.characterize run`) on top of the selected "
        "machine",
    )
    parser.add_argument("--function", default=None, help="kernel function name")
    parser.add_argument(
        "--nbvectors", type=int, default=None, help="number of arrays the kernel needs"
    )
    parser.add_argument(
        "--array-bytes", type=int, default=16 * 1024, help="bytes per array"
    )
    parser.add_argument("--trip", type=int, default=4096, help="trip count n")
    parser.add_argument("--repetitions", type=int, default=32, help="inner-loop calls")
    parser.add_argument("--experiments", type=int, default=8, help="outer-loop runs")
    parser.add_argument(
        "--rciw-target",
        type=float,
        default=None,
        metavar="W",
        help="adaptive stopping: batch experiments until the bootstrapped "
        "relative CI width of cycles/iteration is <= W (e.g. 0.02) or "
        "--max-experiments is reached; unset/0 keeps the fixed "
        "--experiments count",
    )
    parser.add_argument(
        "--min-experiments",
        type=int,
        default=None,
        metavar="N",
        help="adaptive floor: experiments run before the first "
        "convergence check (default: 3)",
    )
    parser.add_argument(
        "--max-experiments",
        type=int,
        default=None,
        metavar="N",
        help="adaptive cap: a configuration that never converges stops "
        "here with converged=False (default: 64)",
    )
    parser.add_argument(
        "--stopping-batch",
        type=int,
        default=None,
        metavar="K",
        help="experiments added per adaptive round after the floor "
        "(default: 8)",
    )
    parser.add_argument("--core", type=int, default=0, help="core to pin to")
    parser.add_argument("--no-pin", action="store_true", help="disable core pinning")
    parser.add_argument(
        "--no-warmup", action="store_true", help="skip the cache-heating call"
    )
    parser.add_argument(
        "--no-overhead-subtraction",
        action="store_true",
        help="keep the call overhead in the measurement",
    )
    parser.add_argument(
        "--frequency", type=float, default=None, help="core frequency in GHz (DVFS)"
    )
    parser.add_argument(
        "--fork", type=int, default=None, metavar="N", help="fork N pinned processes"
    )
    parser.add_argument(
        "--openmp", type=int, default=None, metavar="T", help="run with T OpenMP threads"
    )
    parser.add_argument(
        "--alignment-sweep", action="store_true", help="sweep array alignments"
    )
    parser.add_argument(
        "--energy",
        action="store_true",
        help="also report the energy model's per-iteration estimate",
    )
    parser.add_argument("--csv", default=None, help="append results to this CSV file")
    parser.add_argument(
        "--csv-full", action="store_true", help="one CSV row per experiment"
    )
    add_engine_args(parser)
    parser.add_argument(
        "--output",
        choices=("csv", "jsonl"),
        default="csv",
        help="result file format for --csv (default: csv)",
    )
    parser.add_argument(
        "--exhibit",
        default=None,
        help="regenerate a paper exhibit (fig03..fig18, table1, table2, ...)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for --exhibit"
    )
    parser.add_argument(
        "--save-data",
        metavar="DIR",
        default=None,
        help="with --exhibit: also write the series/tables as CSV files",
    )
    parser.add_argument(
        "--list-exhibits", action="store_true", help="list available exhibits"
    )
    parser.add_argument(
        "--report",
        metavar="OUT.md",
        default=None,
        help="regenerate every exhibit and write a markdown report",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the run (engine scheduling, "
        "launcher batches); summarize with `python -m repro.obs.report`",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a JSON metrics snapshot (cache traffic, retries, "
        "job-duration histograms)",
    )
    return parser


def _report_failures(prog: str, run) -> int:
    """Print quarantined jobs to stderr; exit 3 for a degraded run."""
    if not run.failures:
        return 0
    for failure in run.failures:
        print(
            f"{prog}: job {failure.job_id} ({failure.kernel}, {failure.mode}) "
            f"failed after {failure.attempts} attempts: {failure.reason}",
            file=sys.stderr,
        )
    print(
        f"{prog}: {len(run.failures)} of {run.stats.total_jobs} jobs "
        "quarantined; results are degraded",
        file=sys.stderr,
    )
    return 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_observed(args, lambda: _observed_main(args))
    except PoolUnusable as exc:  # a --job-timeout run without workers
        print(f"microlauncher: {exc}", file=sys.stderr)
        return 2


def _observed_main(args) -> int:
    """The CLI's dispatch body (observability already decided)."""
    if args.list_exhibits:
        for name in available_experiments():
            print(name)
        return 0

    if args.report is not None:
        from repro.analysis.report import write_report

        path = write_report(args.report, quick=args.quick)
        print(f"wrote reproduction report to {path}")
        return 0

    if args.exhibit is not None:
        try:
            result = run_experiment(
                args.exhibit,
                quick=args.quick,
                rciw_target=args.rciw_target,
                max_experiments=args.max_experiments,
                **engine_settings(args),
            )
        except (KeyError, UnsupportedSetting) as exc:
            print(f"microlauncher: {exc}", file=sys.stderr)
            return 2
        print(result.render())
        if args.save_data is not None:
            from repro.analysis.export import export_result

            written = export_result(result, args.save_data)
            for path in written:
                print(f"wrote {path}")
        return 0

    if args.kernel is None:
        print("microlauncher: provide a kernel file or --exhibit", file=sys.stderr)
        return 2
    path = Path(args.kernel)
    if not path.exists():
        print(f"microlauncher: no such kernel {path}", file=sys.stderr)
        return 2

    if args.machine_file is not None:
        from repro.machine.serialize import MachineFileError, load_machine

        try:
            machine = load_machine(args.machine_file)
        except MachineFileError as exc:
            print(f"microlauncher: {exc}", file=sys.stderr)
            return 2
    else:
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
            print(f"microlauncher: {exc}", file=sys.stderr)
            return 2
    options = LauncherOptions(
        function_name=args.function,
        nbvectors=args.nbvectors,
        array_bytes=args.array_bytes,
        trip_count=args.trip,
        repetitions=args.repetitions,
        experiments=args.experiments,
        core=args.core,
        pin=not args.no_pin,
        warmup=not args.no_warmup,
        subtract_overhead=not args.no_overhead_subtraction,
        frequency_ghz=args.frequency,
        n_cores=args.fork or 1,
        omp_threads=args.openmp or 1,
        **adaptive_overrides(
            rciw_target=args.rciw_target,
            min_experiments=args.min_experiments,
            max_experiments=args.max_experiments,
            batch_size=args.stopping_batch,
        ),
    )
    if args.alignment_sweep:
        mode = "alignment_sweep"
    elif args.fork:
        mode = "forked"
    elif args.openmp:
        mode = "openmp"
    else:
        mode = "sequential"
    campaign = Campaign(
        name=path.stem,
        machine=machine,
        sweeps=(SweepSpec(kernels=(path,), base=options, mode=mode),),
    )
    run = run_campaign(campaign, progress=print, **engine_settings(args))
    ms = run.measurements()
    if ms:  # empty when every job was quarantined: see the failure report
        _print_report(mode, ms, machine)
        if args.energy and mode == "sequential":
            _print_energy(path, options, machine)
    if args.csv:
        if args.output == "jsonl":
            out = run.write_jsonl(args.csv)
        else:
            out = write_csv(args.csv, ms, full=args.csv_full, append=True)
        print(f"wrote {out}")
    return _report_failures("microlauncher", run)


def _print_report(mode: str, ms: list, machine) -> None:
    """The human-readable summary of one kernel run's measurements."""
    if mode == "alignment_sweep":
        best = min(ms, key=lambda m: m.cycles_per_iteration)
        worst = max(ms, key=lambda m: m.cycles_per_iteration)
        print(f"{len(ms)} alignment configurations")
        print(f"best : {best.cycles_per_iteration:.3f} cycles/iter "
              f"alignments={best.alignments}")
        print(f"worst: {worst.cycles_per_iteration:.3f} cycles/iter "
              f"alignments={worst.alignments}")
        return
    if mode == "forked":
        mean = sum(m.cycles_per_iteration for m in ms) / len(ms)
        print(f"forked {len(ms)} processes on cores {[m.core for m in ms]}")
        print(f"mean cycles/iteration: {mean:.3f}")
        print(f"max  cycles/iteration: "
              f"{max(m.cycles_per_iteration for m in ms):.3f}")
        return
    m = ms[0]
    cycles = (f"cycles/iteration: {m.cycles_per_iteration:.3f} "
              f"[{m.min_cycles_per_iteration:.3f}, {m.max_cycles_per_iteration:.3f}]")
    if mode == "openmp":
        print(f"openmp threads: {m.n_cores}")
        print(cycles)
        return
    print(f"kernel: {m.kernel_name} on {machine.name}")
    print(cycles)
    print(f"cycles/memory-instruction: {m.cycles_per_memory_instruction:.3f}")
    print(f"bottleneck: {m.bottleneck}")
    if m.rciw is not None:
        status = "converged" if m.converged else "hit max_experiments"
        print(f"rciw: {m.rciw:.4f} after {m.experiments_spent} "
              f"experiments ({status})")


def _print_energy(path: Path, options: LauncherOptions, machine) -> None:
    """The energy model's per-iteration estimate for a sequential run."""
    from repro.launcher.arrays import ArrayAllocator
    from repro.launcher.kernel_input import as_sim_kernel
    from repro.machine.power import estimate_iteration_energy

    sim = as_sim_kernel(path, trip_count=options.trip_count)
    bindings = ArrayAllocator(sim, options).bindings()
    energy = estimate_iteration_energy(
        sim.analysis, bindings, machine, freq_ghz=options.frequency_ghz
    )
    print(
        f"energy/iteration: {energy.total_nj:.2f} nJ "
        f"(dynamic {energy.dynamic_nj:.2f}, memory {energy.memory_nj:.2f}, "
        f"static {energy.static_nj:.2f}); avg power {energy.average_power_w:.2f} W"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
