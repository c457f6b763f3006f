"""Parallel-execution experiments: Figs. 14-18, Table 2 (section 5.2)."""

from __future__ import annotations

import statistics

from repro.analysis.experiments import ExperimentResult, pure_loads, register
from repro.analysis.series import Series, Table
from repro.analysis.stats import find_knee, relative_change, relative_spread
from repro.creator import MicroCreator
from repro.engine import Campaign, SweepSpec, run_campaign
from repro.kernels import multi_array_traversal
from repro.launcher import LauncherOptions, MicroLauncher
from repro.machine import MemLevel, nehalem_2s_x5650, nehalem_4s_x7550, sandy_bridge_e31240


@register("fig14")
def fig14(
    *,
    quick: bool = False,
    engine: dict[str, object],
    **_: object,
) -> ExperimentResult:
    """Fig. 14: forked multi-core RAM kernel — bandwidth saturation.

    "The breaking point for the dual-socket Nehalem machine is six cores.
    Under six cores, the latency is not greatly affected; over six cores"
    contention grows with every added process.
    """
    machine = nehalem_2s_x5650()
    kernel = pure_loads("movaps", unroll=8)
    options = LauncherOptions(
        array_bytes=machine.footprint_for(MemLevel.RAM),
        trip_count=1 << 14,
        experiments=4,
        repetitions=8,
    )
    counts = (1, 2, 4, 6, 8, 12) if quick else tuple(range(1, machine.total_cores + 1))
    sweep = SweepSpec(
        kernels=(kernel,), base=options, axes={"n_cores": counts}, mode="forked"
    )
    run = run_campaign(
        Campaign(name="fig14_forked", machine=machine, sweeps=(sweep,)),
        **engine,
    )
    by_cores = {
        job.tags["n_cores"]: statistics.fmean(m.cycles_per_iteration for m in ms)
        for job, ms in run.per_job()
    }
    ys = [by_cores[n] for n in counts]
    series = Series("8-load movaps, RAM", tuple(float(c) for c in counts), tuple(ys))
    knee = find_knee(series.x, series.y, threshold=0.10)
    return ExperimentResult(
        exhibit="fig14",
        title="forked execution: cycles/iteration vs core count (log scale)",
        paper_expectation="flat up to six cores, then latency climbs (knee at 6)",
        series=[series],
        x_label="cores",
        notes={
            "knee_cores": knee,
            "max_over_min": max(ys) / min(ys),
        },
    )


def _alignment_sweep(active_cores_on_socket: int, *, quick: bool):
    machine = nehalem_4s_x7550()
    launcher = MicroLauncher(machine)
    creator = MicroCreator()
    kernel = creator.generate(multi_array_traversal(4, "movss", unroll=(6, 6)))[0]
    options = LauncherOptions(
        array_bytes=machine.footprint_for(MemLevel.RAM),
        trip_count=1 << 14,
        alignment_min=0,
        alignment_max=1024,
        alignment_step=256 if quick else 128,
        max_alignment_configs=256 if quick else 2500,
        experiments=3,
        repetitions=8,
    )
    sweep = launcher.run_alignment_sweep(
        kernel, options, active_cores_on_socket=active_cores_on_socket
    )
    values = [m.cycles_per_iteration for m in sweep]
    return machine, values


@register("fig15")
def fig15(*, quick: bool = False, **_: object) -> ExperimentResult:
    """Fig. 15: alignment sweep, 4-array movss traversal, 8 of 32 cores.

    Eight cores scattered over four sockets leave DRAM unsaturated, so
    the baseline is pipeline-bound and alignment conflicts swing the
    cycle count by roughly the 20 -> 33 band the paper reports.
    """
    machine, values = _alignment_sweep(active_cores_on_socket=2, quick=quick)
    series = Series("4-array movss, 8 cores", tuple(range(len(values))), tuple(values))
    return ExperimentResult(
        exhibit="fig15",
        title="alignment configurations, 8-core execution",
        paper_expectation="20 to 33 cycles/iteration across ~2500 configurations",
        series=[series],
        x_label="config",
        notes={
            "n_configs": len(values),
            "min": min(values),
            "max": max(values),
            "spread": relative_spread(values),
        },
    )


@register("fig16")
def fig16(*, quick: bool = False, **_: object) -> ExperimentResult:
    """Fig. 16: the same sweep with all 32 cores — memory saturation.

    Eight processes per socket saturate the channels; conflict misses now
    also inflate traffic, widening the band to the paper's 60 -> 90."""
    machine, values = _alignment_sweep(active_cores_on_socket=8, quick=quick)
    series = Series("4-array movss, 32 cores", tuple(range(len(values))), tuple(values))
    return ExperimentResult(
        exhibit="fig16",
        title="alignment configurations, 32-core execution",
        paper_expectation="60 to 90 cycles/iteration under full saturation",
        series=[series],
        x_label="config",
        notes={
            "n_configs": len(values),
            "min": min(values),
            "max": max(values),
            "spread": relative_spread(values),
        },
    )


def _seq_omp_rows(
    name: str,
    kernels,
    options: LauncherOptions,
    machine,
    *,
    engine: dict[str, object],
):
    """Run the same kernels sequentially and under OpenMP as one campaign.

    Returns (seq, omp) measurement lists in the kernels' order.
    """
    sweeps = (
        SweepSpec(kernels=tuple(kernels), base=options, tags={"exec": "seq"}),
        SweepSpec(
            kernels=tuple(kernels), base=options, mode="openmp", tags={"exec": "omp"}
        ),
    )
    run = run_campaign(Campaign(name=name, machine=machine, sweeps=sweeps), **engine)
    grouped = run.grouped("exec")
    return (
        [m for _, m in grouped["seq"]],
        [m for _, m in grouped["omp"]],
    )


def _openmp_vs_sequential(
    n_elements: int,
    *,
    quick: bool,
    engine: dict[str, object],
):
    """Shared Figs. 17/18 implementation: movss loads, unroll 1..8."""
    machine = sandy_bridge_e31240()
    kernels = pure_loads("movss")
    if quick:
        kernels = [k for k in kernels if k.unroll in (1, 2, 4, 8)]
    options = LauncherOptions(
        array_bytes=n_elements * 4,
        trip_count=n_elements,
        omp_threads=machine.cores_per_socket,
        experiments=10,  # the paper compares min/max across ten runs
        repetitions=4,
    )
    seq_ms, omp_ms = _seq_omp_rows(
        f"openmp_vs_sequential_{n_elements}",
        kernels,
        options,
        machine,
        engine=engine,
    )
    xs, seq_y, seq_lo, seq_hi, omp_y, omp_lo, omp_hi = [], [], [], [], [], [], []
    for kernel, seq, omp in zip(kernels, seq_ms, omp_ms):
        xs.append(float(kernel.unroll))
        seq_y.append(seq.cycles_per_element)
        seq_lo.append(seq.min_cycles_per_iteration / seq.elements_per_iteration)
        seq_hi.append(seq.max_cycles_per_iteration / seq.elements_per_iteration)
        scale = omp.elements_per_iteration
        omp_y.append(omp.cycles_per_element)
        omp_lo.append(omp.min_cycles_per_iteration / scale)
        omp_hi.append(omp.max_cycles_per_iteration / scale)
    series = [
        Series("sequential", tuple(xs), tuple(seq_y)),
        Series("sequential(min)", tuple(xs), tuple(seq_lo)),
        Series("sequential(max)", tuple(xs), tuple(seq_hi)),
        Series("openmp", tuple(xs), tuple(omp_y)),
        Series("openmp(min)", tuple(xs), tuple(omp_lo)),
        Series("openmp(max)", tuple(xs), tuple(omp_hi)),
    ]
    notes = {
        "seq_gain": relative_change(seq_y[0], seq_y[-1]),
        "omp_gain": relative_change(omp_y[0], omp_y[-1]),
        "omp_below_seq": all(o < s for o, s in zip(omp_y, seq_y)),
        "seq_stability": max(
            (hi - lo) / lo for lo, hi in zip(seq_lo, seq_hi)
        ),
        "omp_stability": max(
            (hi - lo) / lo for lo, hi in zip(omp_lo, omp_hi)
        ),
        "omp_speedup_at_8": seq_y[-1] / omp_y[-1],
    }
    return series, notes


@register("fig17")
def fig17(
    *,
    quick: bool = False,
    engine: dict[str, object],
    **_: object,
) -> ExperimentResult:
    """Fig. 17: OpenMP vs sequential movss loads, 128k-element array."""
    series, notes = _openmp_vs_sequential(128 * 1024, quick=quick, engine=engine)
    return ExperimentResult(
        exhibit="fig17",
        title="OpenMP vs sequential, 128k elements (log scale)",
        paper_expectation=(
            "OpenMP below sequential at every unroll; stable min/max bands; "
            "good parallel gain for the cache-resident size"
        ),
        series=series,
        x_label="unroll",
        notes=notes,
    )


@register("fig18")
def fig18(
    *,
    quick: bool = False,
    engine: dict[str, object],
    **_: object,
) -> ExperimentResult:
    """Fig. 18: the same with six million elements (RAM resident).

    The 128k version must show a "significantly better performance gain"
    (speedup) than this one: RAM bandwidth, not cores, is the limit here.
    """
    series, notes = _openmp_vs_sequential(6_000_000, quick=quick, engine=engine)
    return ExperimentResult(
        exhibit="fig18",
        title="OpenMP vs sequential, six million elements (log scale)",
        paper_expectation=(
            "OpenMP still wins but by less: the RAM-resident size is "
            "bandwidth-limited"
        ),
        series=series,
        x_label="unroll",
        notes=notes,
    )


@register("table2")
def table2(
    *,
    quick: bool = False,
    engine: dict[str, object],
    **_: object,
) -> ExperimentResult:
    """Table 2: execution seconds, OpenMP vs sequential, unroll 1..8.

    Shape targets: the sequential column decreases with unrolling then
    flattens (18.30 -> ~14.6 s in the paper); the OpenMP column is nearly
    flat (9.42 -> 9.31 s) because the four cores are bandwidth-bound and
    "the overhead of the parallel setup" hides the unrolling gain.
    """
    machine = sandy_bridge_e31240()
    n_elements = 6_000_000
    passes = 400  # repeated traversals making up the multi-second runtime
    kernels = pure_loads("movss")
    if quick:
        kernels = [k for k in kernels if k.unroll in (1, 2, 4, 8)]
    options = LauncherOptions(
        array_bytes=n_elements * 4,
        trip_count=n_elements,
        omp_threads=machine.cores_per_socket,
        experiments=4,
        repetitions=2,
    )
    seq_ms, omp_ms = _seq_omp_rows(
        "table2_seconds",
        kernels,
        options,
        machine,
        engine=engine,
    )
    table = Table(header=("unroll", "openmp_s", "sequential_s"), title="Table 2")
    omp_col, seq_col = [], []
    for kernel, seq, omp in zip(kernels, seq_ms, omp_ms):
        seq_s = seq.cycles_per_element * n_elements * passes / (machine.freq_ghz * 1e9)
        omp_s = omp.cycles_per_element * n_elements * passes / (machine.freq_ghz * 1e9)
        table.add(kernel.unroll, omp_s, seq_s)
        omp_col.append(omp_s)
        seq_col.append(seq_s)
    return ExperimentResult(
        exhibit="table2",
        title="execution time of OpenMP and sequential movss versions",
        paper_expectation=(
            "sequential: 18.30 s -> 14.60 s (improves, then flattens); "
            "OpenMP: 9.42 s -> 9.31 s (essentially flat); OpenMP always faster"
        ),
        tables=[table],
        notes={
            "seq_gain": relative_change(seq_col[0], seq_col[-1]),
            "omp_gain": relative_change(omp_col[0], omp_col[-1]),
            "omp_flat": relative_change(omp_col[0], omp_col[-1]) < 0.15,
            "omp_always_faster": all(o < s for o, s in zip(omp_col, seq_col)),
        },
    )
