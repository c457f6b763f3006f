"""MicroLauncher end-to-end behaviour tests."""

import pytest

from repro.launcher import (
    ArrayAllocator,
    LauncherOptions,
    MicroLauncher,
    as_sim_kernel,
)
from repro.machine import MemLevel, nehalem_2s_x5650


class TestSequentialRun:
    def test_measurement_fields(self, launcher, movaps_u8, fast_options):
        m = launcher.run(movaps_u8, fast_options)
        assert m.kernel_name == movaps_u8.name
        assert m.loop_iterations == fast_options.trip_count // 32
        assert m.cycles_per_iteration > 0
        assert m.core == 0

    def test_unpinned_run_has_no_core(self, launcher, movaps_u8, fast_options):
        m = launcher.run(movaps_u8, fast_options.with_(pin=False))
        assert m.core is None

    def test_hierarchy_ordering_through_launcher(self, launcher, movaps_u8, nehalem):
        values = []
        for level in (MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.RAM):
            options = LauncherOptions(
                array_bytes=nehalem.footprint_for(level),
                trip_count=4096,
                experiments=3,
                repetitions=4,
            )
            values.append(launcher.run(movaps_u8, options).cycles_per_iteration)
        assert values == sorted(values)

    def test_frequency_option_slows_core_bound_kernel(
        self, launcher, movaps_u8, fast_options, nehalem
    ):
        nominal = launcher.run(movaps_u8, fast_options)
        slowed = launcher.run(
            movaps_u8, fast_options.with_(frequency_ghz=nehalem.freq_ghz / 2)
        )
        assert slowed.cycles_per_iteration > 1.7 * nominal.cycles_per_iteration

    def test_results_reproducible_with_same_seed(self, launcher, movaps_u8, fast_options):
        a = launcher.run(movaps_u8, fast_options)
        b = launcher.run(movaps_u8, fast_options)
        assert a.experiment_tsc == b.experiment_tsc

    def test_different_seed_changes_noise_not_signal(
        self, launcher, movaps_u8, fast_options
    ):
        a = launcher.run(movaps_u8, fast_options)
        b = launcher.run(movaps_u8, fast_options.with_(noise_seed=777))
        assert a.experiment_tsc != b.experiment_tsc
        assert a.cycles_per_iteration == pytest.approx(
            b.cycles_per_iteration, rel=0.02
        )

    def test_stabilization_beats_chaos(self, launcher, movaps_u8, fast_options):
        stable = launcher.run(movaps_u8, fast_options.with_(experiments=10))
        chaotic = launcher.run(
            movaps_u8,
            fast_options.with_(
                experiments=10,
                pin=False,
                disable_interrupts=False,
                warmup=False,
                repetitions=1,
            ),
        )
        assert chaotic.spread > 10 * stable.spread


class TestUnrollSweepThroughLauncher:
    def test_l1_unroll_monotone(self, launcher, movaps_variants, nehalem):
        options = LauncherOptions(
            array_bytes=nehalem.footprint_for(MemLevel.L1),
            trip_count=4096,
            experiments=3,
            repetitions=4,
        )
        per_mov = [
            launcher.run(k, options).cycles_per_memory_instruction
            for k in sorted(movaps_variants, key=lambda k: k.unroll)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(per_mov, per_mov[1:]))
        assert per_mov[0] / per_mov[-1] > 1.5


class TestAlignmentSweepRun:
    def test_sweep_size_and_metadata(self, launcher, movaps_u8):
        options = LauncherOptions(
            array_bytes=4096,
            trip_count=1024,
            alignment_min=0,
            alignment_max=128,
            alignment_step=32,
            experiments=2,
            repetitions=4,
        )
        series = launcher.run_alignment_sweep(movaps_u8, options)
        assert len(series) == 4
        assert all(m.metadata["alignment_config"] == i for i, m in enumerate(series))

    def test_misaligned_configs_slower_for_movaps(self, launcher, movaps_u8):
        options = LauncherOptions(
            array_bytes=4096,
            trip_count=1024,
            alignment_min=0,
            alignment_max=32,
            alignment_step=8,
            experiments=2,
            repetitions=4,
        )
        series = launcher.run_alignment_sweep(movaps_u8, options)
        aligned = next(m for m in series if m.alignments == (0,))
        misaligned = next(m for m in series if m.alignments == (8,))
        assert misaligned.cycles_per_iteration > aligned.cycles_per_iteration


class TestCsvIntegration:
    def test_run_appends_csv(self, launcher, movaps_u8, fast_options, tmp_path):
        path = tmp_path / "out.csv"
        options = fast_options.with_(csv_path=str(path))
        launcher.run(movaps_u8, options)
        launcher.run(movaps_u8, options)
        from repro.launcher.csvout import read_csv

        rows = read_csv(path)
        assert len(rows) == 2
        assert rows[0]["kernel"] == movaps_u8.name

    def test_run_with_bindings_appends_csv(
        self, launcher, movaps_u8, fast_options, tmp_path
    ):
        path = tmp_path / "bound.csv"
        options = fast_options.with_(csv_path=str(path))
        sim = as_sim_kernel(movaps_u8, trip_count=options.trip_count)
        bindings = ArrayAllocator(sim, options).bindings()
        m = launcher.run_with_bindings(movaps_u8, bindings, options)
        from repro.launcher.csvout import read_csv

        rows = read_csv(path)
        assert len(rows) == 1
        assert rows[0]["kernel"] == m.kernel_name

    def test_full_csv_one_row_per_experiment(
        self, launcher, movaps_u8, fast_options, tmp_path
    ):
        path = tmp_path / "full.csv"
        options = fast_options.with_(csv_path=str(path), csv_full=True)
        launcher.run(movaps_u8, options)
        from repro.launcher.csvout import read_csv

        rows = read_csv(path)
        assert len(rows) == fast_options.experiments
        assert {r["experiment"] for r in rows} == {0, 1, 2}


class TestDefaultMachine:
    def test_defaults_to_dual_nehalem(self):
        launcher = MicroLauncher()
        assert launcher.config.name == nehalem_2s_x5650().name
