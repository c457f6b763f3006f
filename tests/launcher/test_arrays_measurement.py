"""Array allocation, alignment sweep, and Fig.-10 measurement tests."""

import pytest

from repro.launcher.arrays import AlignmentSweep, ArrayAllocator
from repro.launcher.kernel_input import as_sim_kernel
from repro.launcher.measurement import (
    CALL_OVERHEAD_NS,
    Measurement,
    MeasurementRequest,
    MeasurementSeries,
    run_measurement_batch,
)
from repro.launcher.options import LauncherOptions
from repro.machine.config import MemLevel
from repro.machine.noise import NoiseModel

ASM = """
.L6:
movaps (%rsi), %xmm0
add $1, %eax
add $16, %rsi
sub $4, %rdi
jge .L6
"""


class TestArrayAllocator:
    def test_default_bindings(self):
        sim = as_sim_kernel(ASM)
        bindings = ArrayAllocator(sim, LauncherOptions(array_bytes=4096)).bindings()
        assert set(bindings) == {"%rsi"}
        assert bindings["%rsi"].size_bytes == 4096

    def test_explicit_alignments(self):
        sim = as_sim_kernel(ASM)
        allocator = ArrayAllocator(sim, LauncherOptions())
        bindings = allocator.bindings([128])
        assert bindings["%rsi"].alignment == 128

    def test_default_placement_spreads_arrays(self, creator):
        from repro.kernels import multi_array_traversal

        kernel = creator.generate(multi_array_traversal(4, "movss", unroll=(1, 1)))[0]
        sim = as_sim_kernel(kernel)
        bindings = ArrayAllocator(sim, LauncherOptions()).bindings()
        alignments = [b.alignment for b in bindings.values()]
        assert len(set(a % 4096 for a in alignments)) == 4

    def test_residence_override(self):
        sim = as_sim_kernel(ASM)
        options = LauncherOptions(residence=MemLevel.L3)
        bindings = ArrayAllocator(sim, options).bindings()
        assert bindings["%rsi"].residence is MemLevel.L3

    def test_nbvectors_too_small_rejected(self):
        sim = as_sim_kernel(ASM)
        with pytest.raises(ValueError, match="nbvectors"):
            ArrayAllocator(sim, LauncherOptions(nbvectors=0))


class TestAlignmentSweep:
    def test_full_cartesian_when_small(self):
        options = LauncherOptions(alignment_min=0, alignment_max=256, alignment_step=64)
        sweep = AlignmentSweep(n_arrays=2, options=options)
        configs = list(sweep.configurations())
        assert len(configs) == 16
        assert (0, 0) in configs and (192, 192) in configs

    def test_cap_subsamples_deterministically(self):
        options = LauncherOptions(
            alignment_min=0,
            alignment_max=1024,
            alignment_step=16,
            max_alignment_configs=100,
        )
        sweep = AlignmentSweep(n_arrays=4, options=options)
        configs = list(sweep.configurations())
        assert len(configs) == 100
        assert configs == list(sweep.configurations())  # deterministic

    def test_len_matches_iteration(self):
        options = LauncherOptions(alignment_max=128, alignment_step=64)
        sweep = AlignmentSweep(n_arrays=3, options=options)
        assert len(sweep) == len(list(sweep.configurations()))


def _measure(**overrides):
    defaults = dict(
        ideal_call_ns=1000.0,
        kernel_name="k",
        options=LauncherOptions(trip_count=256, repetitions=8, experiments=5),
        loop_iterations=64,
        elements_per_iteration=4,
        n_memory_instructions=1,
        freq_ghz=2.67,
        tsc_ghz=2.67,
        noise=NoiseModel(seed=1),
    )
    defaults.update(overrides)
    shared = {
        key: defaults.pop(key) for key in ("options", "freq_ghz", "tsc_ghz", "noise")
    }
    return run_measurement_batch([MeasurementRequest(**defaults)], **shared)[0]


class TestFig10Algorithm:
    def test_cycles_per_iteration_recovers_ideal(self):
        """With subtraction on, the measured cycles/iteration equals the
        ideal per-iteration time to within the noise floor."""
        m = _measure()
        ideal_cycles = 1000.0 / 64 * 2.67
        assert m.cycles_per_iteration == pytest.approx(ideal_cycles, rel=0.02)

    def test_overhead_subtraction_removes_call_cost(self):
        biased = _measure(
            options=LauncherOptions(
                trip_count=256, repetitions=8, experiments=5, subtract_overhead=False
            )
        )
        clean = _measure()
        expected_bias_cycles = CALL_OVERHEAD_NS / 64 * 2.67
        assert biased.cycles_per_iteration - clean.cycles_per_iteration == pytest.approx(
            expected_bias_cycles, rel=0.2
        )

    def test_experiment_count_respected(self):
        m = _measure(options=LauncherOptions(trip_count=64, experiments=7))
        assert len(m.experiment_tsc) == 7

    def test_per_experiment_ideal_overrides(self):
        m = _measure(
            per_experiment_ideal_ns=[1000.0, 2000.0, 1000.0, 1000.0, 1000.0]
        )
        assert m.max_cycles_per_iteration > 1.5 * m.min_cycles_per_iteration

    def test_cold_start_visible_without_warmup(self):
        cold = _measure(
            options=LauncherOptions(
                trip_count=256, repetitions=8, experiments=5, warmup=False
            )
        )
        warm = _measure()
        assert cold.spread > warm.spread


class TestMeasurementAccessors:
    def test_aggregators(self):
        base = _measure()
        values = base.experiment_tsc
        for agg, expected in (
            ("min", min(values)),
            ("mean", sum(values) / len(values)),
        ):
            m = Measurement(**{**_as_kwargs(base), "aggregator": agg})
            assert m.tsc_per_call == pytest.approx(expected / base.repetitions)

    def test_cycles_per_element(self):
        m = _measure()
        assert m.cycles_per_element == pytest.approx(m.cycles_per_iteration / 4)

    def test_cycles_per_memory_instruction_fallback(self):
        m = _measure(n_memory_instructions=0)
        assert m.cycles_per_memory_instruction == m.cycles_per_iteration

    def test_spread_nonnegative(self):
        assert _measure().spread >= 0


def _as_kwargs(m: Measurement) -> dict:
    return {
        "kernel_name": m.kernel_name,
        "label": m.label,
        "trip_count": m.trip_count,
        "repetitions": m.repetitions,
        "loop_iterations": m.loop_iterations,
        "elements_per_iteration": m.elements_per_iteration,
        "n_memory_instructions": m.n_memory_instructions,
        "experiment_tsc": m.experiment_tsc,
        "freq_ghz": m.freq_ghz,
        "tsc_ghz": m.tsc_ghz,
        "aggregator": m.aggregator,
    }


class TestMeasurementSeries:
    def _series(self):
        series = MeasurementSeries()
        for i, ideal in enumerate((2000.0, 1000.0, 3000.0)):
            series.append(
                _measure(ideal_call_ns=ideal, metadata={"unroll": i % 2})
            )
        return series

    def test_best_and_worst(self):
        series = self._series()
        assert series.best().cycles_per_iteration < series.worst().cycles_per_iteration

    def test_group_min(self):
        series = self._series()
        groups = series.group_min("unroll")
        assert set(groups) == {0, 1}

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            MeasurementSeries().best()
