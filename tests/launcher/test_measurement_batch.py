"""Batched measurement must reproduce the sequential path bit-for-bit.

``run_measurement_batch`` times a whole configuration family in a single
vectorized pass; ``_measure_one`` below is a batch of one.  The contract
is bit-identity: ``_reference_run_measurement`` below is the
pre-batching implementation, kept verbatim as the oracle.
"""

import numpy as np
import pytest

from repro.launcher import LauncherOptions, MeasurementRequest, MicroLauncher
from repro.launcher.measurement import (
    CALL_OVERHEAD_NS,
    Measurement,
    MeasurementSeries,
    run_measurement_batch,
)
from repro.machine.noise import NoiseEnvironment, NoiseModel


def _reference_run_measurement(
    *,
    ideal_call_ns,
    kernel_name,
    options,
    loop_iterations,
    elements_per_iteration,
    n_memory_instructions,
    freq_ghz,
    tsc_ghz,
    noise,
    alignments=(),
    core=None,
    n_cores=1,
    bottleneck="",
    metadata=None,
    per_experiment_ideal_ns=None,
):
    """The pre-batching scalar implementation, verbatim (the oracle)."""
    env = NoiseEnvironment(
        pinned=options.pin,
        interrupts_disabled=options.disable_interrupts,
        warmed_up=options.warmup,
        inner_repetitions=options.repetitions,
    )
    overhead_estimate_ns = 0.0
    if options.subtract_overhead:
        raw = options.repetitions * CALL_OVERHEAD_NS
        overhead_estimate_ns = noise.perturb(raw, env, experiment=-1)
    experiment_tsc = []
    for e in range(options.experiments):
        ideal = (
            per_experiment_ideal_ns[e]
            if per_experiment_ideal_ns is not None
            else ideal_call_ns
        )
        duration_ns = options.repetitions * (ideal + CALL_OVERHEAD_NS)
        duration_ns = noise.perturb(duration_ns, env, experiment=e, first_run=(e == 0))
        duration_ns -= overhead_estimate_ns
        experiment_tsc.append(max(duration_ns, 0.0) * tsc_ghz)
    return Measurement(
        kernel_name=kernel_name,
        label=options.label,
        trip_count=options.trip_count,
        repetitions=options.repetitions,
        loop_iterations=loop_iterations,
        elements_per_iteration=elements_per_iteration,
        n_memory_instructions=n_memory_instructions,
        experiment_tsc=tuple(experiment_tsc),
        freq_ghz=freq_ghz,
        tsc_ghz=tsc_ghz,
        aggregator=options.aggregator,
        alignments=alignments,
        core=core,
        n_cores=n_cores,
        bottleneck=bottleneck,
        metadata=dict(metadata or {}),
    )


def _measure_one(*, options, freq_ghz, tsc_ghz, noise, **request_fields):
    """A batch of one, called with the oracle's keyword shape."""
    return run_measurement_batch(
        [MeasurementRequest(**request_fields)],
        options=options,
        freq_ghz=freq_ghz,
        tsc_ghz=tsc_ghz,
        noise=noise,
    )[0]


OPTION_VARIANTS = [
    LauncherOptions(),
    LauncherOptions(pin=False),
    LauncherOptions(warmup=False),
    LauncherOptions(disable_interrupts=False),
    LauncherOptions(subtract_overhead=False),
    LauncherOptions(pin=False, warmup=False, disable_interrupts=False),
    LauncherOptions(experiments=1, repetitions=1),
    LauncherOptions(experiments=16, repetitions=64, aggregator="median"),
    LauncherOptions(aggregator="mean"),
]


def _kwargs(ideal=250.0, **overrides):
    base = dict(
        ideal_call_ns=ideal,
        kernel_name="k",
        loop_iterations=128,
        elements_per_iteration=4,
        n_memory_instructions=2,
        freq_ghz=2.67,
        tsc_ghz=2.66,
    )
    base.update(overrides)
    return base


class TestRunMeasurementAgainstReference:
    @pytest.mark.parametrize("options", OPTION_VARIANTS)
    def test_bit_identical_to_pre_batching_path(self, options):
        noise = NoiseModel(seed=2024)
        got = _measure_one(options=options, noise=noise, **_kwargs())
        want = _reference_run_measurement(options=options, noise=noise, **_kwargs())
        assert got == want  # dataclass equality: every field, exact floats

    def test_per_experiment_ideals(self):
        noise = NoiseModel(seed=7)
        options = LauncherOptions(experiments=5)
        ideals = [100.0, 150.0, 200.0, 250.0, 300.0]
        got = _measure_one(
            options=options, noise=noise, **_kwargs(per_experiment_ideal_ns=ideals)
        )
        want = _reference_run_measurement(
            options=options, noise=noise, **_kwargs(per_experiment_ideal_ns=ideals)
        )
        assert got == want

    def test_short_per_experiment_ideals_raise(self):
        with pytest.raises(ValueError, match="need"):
            _measure_one(
                options=LauncherOptions(experiments=8),
                noise=NoiseModel(),
                **_kwargs(per_experiment_ideal_ns=[100.0, 200.0]),
            )


class TestRunMeasurementBatch:
    def test_batch_equals_per_config_calls(self):
        noise = NoiseModel(seed=13)
        options = LauncherOptions(experiments=8)
        requests = [
            MeasurementRequest(
                ideal_call_ns=50.0 * (k + 1),
                kernel_name=f"k{k}",
                loop_iterations=64 + k,
                elements_per_iteration=4,
                n_memory_instructions=k,
                bottleneck="front-end",
                metadata={"unroll": k},
            )
            for k in range(20)
        ]
        batch = run_measurement_batch(
            requests, options=options, freq_ghz=2.67, tsc_ghz=2.66, noise=noise
        )
        for request, got in zip(requests, batch):
            want = _measure_one(
                ideal_call_ns=request.ideal_call_ns,
                kernel_name=request.kernel_name,
                options=options,
                loop_iterations=request.loop_iterations,
                elements_per_iteration=request.elements_per_iteration,
                n_memory_instructions=request.n_memory_instructions,
                freq_ghz=2.67,
                tsc_ghz=2.66,
                noise=noise,
                bottleneck=request.bottleneck,
                metadata=request.metadata,
            )
            assert got == want

    def test_empty_batch(self):
        assert (
            run_measurement_batch(
                [],
                options=LauncherOptions(),
                freq_ghz=2.67,
                tsc_ghz=2.66,
                noise=NoiseModel(),
            )
            == []
        )

    def test_experiment_tsc_holds_plain_floats(self):
        """Serialization relies on ``float.__repr__``; keep builtins."""
        m = _measure_one(
            options=LauncherOptions(experiments=2), noise=NoiseModel(), **_kwargs()
        )
        assert all(type(t) is float for t in m.experiment_tsc)


class TestAggregatorValidation:
    def test_construction_rejects_unknown_aggregator(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            Measurement(
                kernel_name="k",
                label="",
                trip_count=1,
                repetitions=1,
                loop_iterations=1,
                elements_per_iteration=1,
                n_memory_instructions=0,
                experiment_tsc=(1.0,),
                freq_ghz=1.0,
                tsc_ghz=1.0,
                aggregator="mode",
            )

    @pytest.mark.parametrize("aggregator", ("min", "median", "mean"))
    def test_known_aggregators_accepted(self, aggregator):
        m = _measure_one(
            options=LauncherOptions(aggregator=aggregator),
            noise=NoiseModel(),
            **_kwargs(),
        )
        assert m.cycles_per_iteration > 0


class TestSeriesVectorization:
    def _series(self, aggregator="min", ragged=False):
        noise = NoiseModel(seed=3)
        series = MeasurementSeries()
        for k in range(12):
            experiments = 4 + (k % 3 if ragged else 0)
            options = LauncherOptions(experiments=experiments, aggregator=aggregator)
            series.append(
                _measure_one(
                    options=options,
                    noise=noise,
                    **_kwargs(ideal=100.0 + 17.0 * ((k * 5) % 12)),
                )
            )
        return series

    @pytest.mark.parametrize("aggregator", ("min", "median", "mean"))
    @pytest.mark.parametrize("ragged", (False, True))
    def test_array_matches_properties(self, aggregator, ragged):
        series = self._series(aggregator, ragged)
        array = series.cycles_per_iteration_array()
        expected = [m.cycles_per_iteration for m in series]
        assert array.tolist() == expected  # bit-exact, both paths

    def test_best_worst_match_python_min_max(self):
        series = self._series()
        assert series.best() is min(series, key=lambda m: m.cycles_per_iteration)
        assert series.worst() is max(series, key=lambda m: m.cycles_per_iteration)

    def test_best_worst_ties_pick_first(self):
        m = _measure_one(options=LauncherOptions(), noise=NoiseModel(), **_kwargs())
        series = MeasurementSeries([m, m])
        assert series.best() is series[0]
        assert series.worst() is series[0]

    def test_empty_series_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MeasurementSeries().best()

    def test_group_min(self):
        noise = NoiseModel(seed=8)
        series = MeasurementSeries()
        for k in range(9):
            m = _measure_one(
                options=LauncherOptions(),
                noise=noise,
                **_kwargs(ideal=100.0 + 31.0 * ((k * 7) % 9), metadata={"u": k % 3}),
            )
            series.append(m)
        groups = series.group_min("u")
        for key, winner in groups.items():
            members = [m for m in series if m.metadata.get("u") == key]
            assert winner is min(members, key=lambda m: m.cycles_per_iteration)


class TestLauncherRunBatch:
    def test_run_batch_equals_sequential_runs(
        self, launcher, movaps_variants, fast_options
    ):
        sequential = [launcher.run(k, fast_options) for k in movaps_variants]
        batch = launcher.run_batch(movaps_variants, fast_options)
        assert isinstance(batch, MeasurementSeries)
        assert list(batch) == sequential

    def test_run_batch_empty(self, launcher, fast_options):
        assert len(launcher.run_batch([], fast_options)) == 0

    def test_run_batch_respects_noise_salt(
        self, launcher, movaps_u8, fast_options
    ):
        base = launcher.run_batch([movaps_u8], fast_options)[0]
        salted = launcher.run_batch([movaps_u8], fast_options, noise_salt=1)[0]
        assert base.experiment_tsc != salted.experiment_tsc
