"""Meta exhibits: Table 1, the generation-scale claims, the Fig. 8 golden
output, and the stability claim (sections 3, 4.7, 5)."""

from __future__ import annotations

from repro.analysis.experiments import ExperimentResult, pure_loads, register
from repro.analysis.series import Table
from repro.creator import MicroCreator
from repro.kernels import all_mov_families, loadstore_family, spec_path
from repro.launcher import LauncherOptions, MicroLauncher
from repro.machine import MemLevel, PRESETS, nehalem_2s_x5650


@register("table1")
def table1(**_: object) -> ExperimentResult:
    """Table 1: the architecture <-> figure association.

    Reproduced as the three machine presets, each carrying the
    microarchitectural parameters the corresponding figures exercise.
    """
    table = Table(
        header=("preset", "name", "GHz", "sockets x cores", "L3 MiB", "figures"),
        title="Table 1",
    )
    figure_map = {
        "nehalem-2s": "2, 3, 4, 5, 11, 12, 13, 14",
        "nehalem-4s": "15, 16",
        "sandy-bridge": "17, 18",
    }
    for key, factory in sorted(PRESETS.items()):
        cfg = factory()
        l3 = cfg.cache(MemLevel.L3).size_bytes // (1024 * 1024)
        table.add(
            key,
            cfg.name,
            cfg.freq_ghz,
            f"{cfg.n_sockets} x {cfg.cores_per_socket}",
            l3,
            figure_map[key],
        )
    return ExperimentResult(
        exhibit="table1",
        title="association between figures and target architectures",
        paper_expectation=(
            "Sandy Bridge E31240 (17, 18); dual-socket Nehalem X5650 "
            "(2-5, 11-14); quad-socket Nehalem X7550 (15, 16)"
        ),
        tables=[table],
        notes={"n_presets": len(PRESETS)},
    )


@register("fig08")
def fig08(**_: object) -> ExperimentResult:
    """Fig. 8: the unroll-3 two-store/one-load output for the Fig. 6 spec.

    Golden structural check: among the 510 variants of the (Load|Store)+
    input there is an unroll-3 'SLS' variant whose body is exactly the
    paper's — stores at 0/32, load at 16, ``add $48, %rsi``,
    ``sub $12, %rdi``, ``jge .L6``.
    """
    creator = MicroCreator()
    variants = creator.generate_from_file(spec_path("loadstore_movaps"))
    target = next(v for v in variants if v.unroll == 3 and v.mix == "SLS")
    table = Table(header=("line",), title="generated unroll-3 variant")
    text = target.asm_text()
    for line in text.strip().splitlines():
        table.add(line)
    expected_fragments = (
        "movaps %xmm0, (%rsi)",
        "movaps 16(%rsi), %xmm1",
        "movaps %xmm2, 32(%rsi)",
        "add $48, %rsi",
        "sub $12, %rdi",
        "jge .L6",
    )
    return ExperimentResult(
        exhibit="fig08",
        title="unroll-3 output for the Fig. 6 (Load|Store)+ description",
        paper_expectation="two stores + one load, offsets 0/16/32, add $48 / sub $12 / jge .L6",
        tables=[table],
        notes={
            "matches_figure": all(frag in text for frag in expected_fragments),
            "n_variants_from_spec": len(variants),
        },
    )


@register("generation_scale")
def generation_scale(**_: object) -> ExperimentResult:
    """The generation-scale claims of sections 3 and 5.1.

    - one (Load|Store)+ input file -> 510 variants (sum of 2^u, u=1..8),
    - one four-family input file -> "more than two thousand" (4 x 510).
    """
    creator = MicroCreator()
    per_family = {
        op: len(creator.generate(loadstore_family(op)))
        for op in ("movss", "movsd", "movaps", "movapd")
    }
    combined = len(creator.generate(all_mov_families()))
    table = Table(header=("input file", "variants"), title="generation scale")
    for op, count in per_family.items():
        table.add(f"{op} (Load|Store)+", count)
    table.add("four-family single file", combined)
    return ExperimentResult(
        exhibit="generation_scale",
        title="variants generated from single input files",
        paper_expectation="510 per family; more than 2000 from one input",
        tables=[table],
        notes={
            "per_family_510": all(c == 510 for c in per_family.values()),
            "combined": combined,
            "over_2000": combined > 2000,
        },
    )


@register("stability")
def stability(*, quick: bool = False, **_: object) -> ExperimentResult:
    """Section 4.7's stability claim, as an ablation over the controls.

    "To achieve stability, the launcher: modifies the alignment of data
    arrays, disables interruptions, and pins the experiments onto
    particular cores ... heating the instruction and data cache."  Every
    control removed should visibly widen the run-to-run spread.
    """
    machine = nehalem_2s_x5650()
    launcher = MicroLauncher(machine)
    kernel = pure_loads("movaps", unroll=8)
    base = LauncherOptions(
        array_bytes=machine.footprint_for(MemLevel.L2),
        trip_count=1 << 14,
        experiments=6 if quick else 12,
        repetitions=16,
    )
    scenarios = {
        "stabilized (default)": base,
        "no pinning": base.with_(pin=False),
        "interrupts enabled": base.with_(disable_interrupts=False, repetitions=1),
        "no warm-up": base.with_(warmup=False),
        "single repetition": base.with_(repetitions=1),
        "nothing stabilized": base.with_(
            pin=False, disable_interrupts=False, warmup=False, repetitions=1
        ),
    }
    table = Table(header=("scenario", "spread"), title="run-to-run spread")
    spreads: dict[str, float] = {}
    for label, options in scenarios.items():
        m = launcher.run(kernel, options)
        spreads[label] = m.spread
        table.add(label, m.spread)
    return ExperimentResult(
        exhibit="stability",
        title="MicroLauncher stabilization ablation",
        paper_expectation=(
            "executing multiple times with the same kernel must give the "
            "same result; every removed control degrades repeatability"
        ),
        tables=[table],
        notes={
            "stabilized_spread": spreads["stabilized (default)"],
            "unstabilized_spread": spreads["nothing stabilized"],
            "controls_matter": spreads["nothing stabilized"]
            > 10 * spreads["stabilized (default)"],
        },
    )
