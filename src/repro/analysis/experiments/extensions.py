"""Extension experiments: the paper's stated future work, made executable.

These are not reproductions of published exhibits — the paper only
*claims* the capabilities (power utilization in the conclusion, MPI
support and data-mining analysis in future work).  Each experiment here
demonstrates the implemented extension and asserts its internal
consistency.
"""

from __future__ import annotations

from repro.analysis.autotune import tune
from repro.analysis.experiments import ExperimentResult, pure_loads, register
from repro.analysis.series import Series, Table
from repro.creator import MicroCreator, abstract_program
from repro.kernels import loadstore_family
from repro.launcher import LauncherOptions, MicroLauncher
from repro.machine import (
    ArrayBinding,
    MemLevel,
    energy_frequency_sweep,
    nehalem_2s_x5650,
)


@register("ext_power")
def ext_power(**_: object) -> ExperimentResult:
    """Power utilization under DVFS (conclusion's power claim).

    The model must expose the textbook trade-off: for a *core-bound*
    kernel, lowering the frequency saves dynamic energy but stretches
    static time — energy per iteration has an interior structure; for a
    *memory-bound* kernel the runtime barely moves, so the dynamic
    savings win monotonically.
    """
    machine = nehalem_2s_x5650()
    kernel = pure_loads("movaps", unroll=8)
    _, body = kernel.program.kernel_loop()
    from repro.machine import analyze_kernel

    analysis = analyze_kernel(body)
    series = []
    notes: dict[str, object] = {}
    for label, level in (("core-bound (L1)", MemLevel.L1), ("memory-bound (RAM)", MemLevel.RAM)):
        bindings = {"%rsi": ArrayBinding("%rsi", machine.footprint_for(level))}
        sweep = energy_frequency_sweep(analysis, bindings, machine)
        xs = tuple(sweep)
        ys = tuple(b.total_nj for b in sweep.values())
        series.append(Series(label, xs, ys))
        notes[f"dynamic_share_{level.label}"] = (
            sweep[machine.freq_ghz].dynamic_nj / sweep[machine.freq_ghz].total_nj
        )
    l1 = series[0]
    ram = series[1]
    # Memory-bound: the lowest frequency is (near-)optimal; core-bound:
    # slowing down buys much less because runtime stretches.
    l1_saving = l1.y[-1] / l1.y[0]
    ram_saving = ram.y[-1] / ram.y[0]
    notes.update(
        l1_energy_ratio_nominal_over_slowest=l1_saving,
        ram_energy_ratio_nominal_over_slowest=ram_saving,
        dvfs_helps_memory_bound_more=ram_saving > l1_saving,
    )
    return ExperimentResult(
        exhibit="ext_power",
        title="energy per iteration vs core frequency (extension)",
        paper_expectation=(
            "conclusion: MicroTools 'give an input on the performance and "
            "power utilization'; expected: DVFS saves more energy on "
            "memory-bound kernels than core-bound ones"
        ),
        series=series,
        x_label="GHz",
        notes=notes,
    )


@register("ext_mpi")
def ext_mpi(*, quick: bool = False, **_: object) -> ExperimentResult:
    """MPI-model scaling with halo exchange (future work).

    Weak scaling of the RAM kernel with a ring halo: compute time shows
    the Fig.-14 bandwidth knee, and the communication fraction grows when
    neighbours land on different sockets.
    """
    machine = nehalem_2s_x5650()
    launcher = MicroLauncher(machine)
    kernel = pure_loads("movaps", unroll=8)
    options = LauncherOptions(
        array_bytes=machine.footprint_for(MemLevel.RAM),
        trip_count=1 << 14,
        experiments=3,
        repetitions=4,
    )
    counts = (2, 4, 8, 12) if quick else (2, 4, 6, 8, 10, 12)
    xs, cycles, comm_frac = [], [], []
    for ranks in counts:
        result = launcher.run_mpi(
            kernel, options, ranks=ranks, message_bytes=4096
        )
        xs.append(float(ranks))
        cycles.append(result.mean_cycles_per_iteration)
        comm_frac.append(result.communication_fraction)
    table = Table(header=("ranks", "cycles/iter", "comm fraction"), title="MPI scaling")
    for x, c, f in zip(xs, cycles, comm_frac):
        table.add(int(x), c, f)
    no_comm = launcher.run_mpi(kernel, options, ranks=4, message_bytes=0)
    return ExperimentResult(
        exhibit="ext_mpi",
        title="MPI-model weak scaling with ring halo exchange (extension)",
        paper_expectation="future work: 'fully supporting every OpenMP/MPI constructs'",
        series=[Series("cycles/iter", tuple(xs), tuple(cycles))],
        tables=[table],
        x_label="ranks",
        notes={
            "saturation_visible": cycles[-1] > 1.3 * cycles[0],
            "communication_costs": comm_frac[0] > 0,
            "zero_message_is_free": no_comm.communication_fraction == 0.0,
        },
    )


@register("ext_autotune")
def ext_autotune(*, quick: bool = False, **_: object) -> ExperimentResult:
    """Data-mining auto-analysis (future work).

    Tunes the full 510-variant (Load|Store)+ family on an L1-resident
    array.  The analysis should *discover* the machine's structure
    without being told it: the unroll factor and the load/store mix are
    the knobs that matter (loop-overhead amortization and the separate
    load/store ports), the optimum is a maximally-unrolled variant with a
    balanced mix — the dual-port schedule a human tuner would hand-craft.
    """
    machine = nehalem_2s_x5650()
    launcher = MicroLauncher(machine)
    creator = MicroCreator()
    kernels = creator.generate(loadstore_family("movaps"))
    options = LauncherOptions(
        array_bytes=machine.footprint_for(MemLevel.L1),
        trip_count=1 << 14,
        experiments=2 if quick else 3,
        repetitions=4,
    )
    result = tune(
        kernels, launcher, options, objective="cycles_per_memory_instruction"
    )
    table = Table(header=("knob", "variance share"), title="attribution")
    ranked_knobs = sorted(result.importance.items(), key=lambda kv: -kv[1])
    for key, score in ranked_knobs:
        table.add(key, score)
    best_mix = result.best.mix
    balanced = abs(best_mix.count("L") - best_mix.count("S")) <= 1
    return ExperimentResult(
        exhibit="ext_autotune",
        title="auto-tune + variance attribution over 510 variants (extension)",
        paper_expectation=(
            "future work: 'data-mining techniques allow to process the "
            "MicroTools data ... to automate the analysis'"
        ),
        tables=[table],
        notes={
            "n_variants": len(result.ranked),
            "best_unroll": result.best.unroll,
            "best_mix": best_mix,
            "headroom": result.tuning_headroom,
            "unroll_and_mix_lead": {k for k, _ in ranked_knobs[:2]}
            == {"unroll", "mix"},
            "best_is_max_unroll": result.best.unroll == 8,
            "best_mix_is_balanced": balanced,
        },
    )


@register("ext_abstraction")
def ext_abstraction(**_: object) -> ExperimentResult:
    """Application-driven generation (future work).

    Abstract a 'hotspot' (a compiled-looking unroll-4 loop) back into a
    kernel description, regenerate the family, and check (a) the original
    body is recovered at the same unroll factor and (b) the re-opened
    sweep finds a better variant.
    """
    machine = nehalem_2s_x5650()
    launcher = MicroLauncher(machine)
    hotspot = pure_loads("movaps", unroll=2)
    spec = abstract_program(hotspot.program, unroll=(1, 8))
    family = MicroCreator().generate(spec)
    regenerated = next(k for k in family if k.unroll == 2)
    roundtrip = regenerated.asm_text() == hotspot.asm_text()

    options = LauncherOptions(
        array_bytes=machine.footprint_for(MemLevel.L1),
        trip_count=1 << 14,
        experiments=3,
        repetitions=4,
    )
    original = launcher.run(hotspot, options).cycles_per_memory_instruction
    best = min(
        m.cycles_per_memory_instruction
        for m in launcher.run_batch(family, options)
    )
    table = Table(header=("variant", "cycles/move"), title="around the hotspot")
    table.add("original (unroll 2)", original)
    table.add("best of abstracted family", best)
    return ExperimentResult(
        exhibit="ext_abstraction",
        title="hotspot abstraction and re-optimization (extension)",
        paper_expectation=(
            "future work: 'applications drive MicroCreator's generated "
            "code to test variations around the application's hotspots'"
        ),
        tables=[table],
        notes={
            "roundtrip_exact": roundtrip,
            "family_size": len(family),
            "found_improvement": best < original,
            "improvement": original / best,
        },
    )
