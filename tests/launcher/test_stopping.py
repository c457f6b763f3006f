"""Statistical-equivalence properties of the adaptive RCIW stopping layer.

The contract (see ``repro/launcher/stopping.py``): adaptive sampling is
a deterministic *prefix* of the fixed-count run — degenerate settings
reproduce the fixed path bit-for-bit, convergence is monotone in the
target, reported CI bounds always bracket the reported mean, and batch
composition cannot change any configuration's result.
"""

from __future__ import annotations

import statistics

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.launcher import LauncherOptions
from repro.launcher.measurement import (
    MeasurementRequest,
    run_measurement_batch,
)
from repro.launcher.stopping import bootstrap_ci, resample_indices
from repro.machine.noise import NoiseModel


def _requests(n, *, base_ns=120.0):
    return [
        MeasurementRequest(
            ideal_call_ns=base_ns + 17.0 * k,
            kernel_name=f"k{k}",
            loop_iterations=32,
            elements_per_iteration=4,
            n_memory_instructions=2,
        )
        for k in range(n)
    ]


def _run(requests, options, seed):
    return run_measurement_batch(
        requests,
        options=options,
        freq_ghz=2.67,
        tsc_ghz=2.67,
        noise=NoiseModel(seed=seed),
    )


def _mean_cpi(m):
    return (
        statistics.fmean(m.experiment_tsc) / m.repetitions / m.loop_iterations
    )


class TestFixedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_experiments=st.integers(min_value=2, max_value=12),
        n_configs=st.integers(min_value=1, max_value=4),
        pin=st.booleans(),
    )
    def test_min_equals_max_is_bit_identical(
        self, seed, n_experiments, n_configs, pin
    ):
        """``min == max`` degenerates to the fixed path bit-for-bit."""
        fixed = LauncherOptions(experiments=n_experiments, pin=pin)
        adaptive = fixed.with_(
            rciw_target=1e-9,
            min_experiments=n_experiments,
            max_experiments=n_experiments,
        )
        requests = _requests(n_configs)
        for a, b in zip(
            _run(requests, adaptive, seed), _run(requests, fixed, seed)
        ):
            assert a.experiment_tsc == b.experiment_tsc
            assert a.rciw is not None and b.rciw is None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_zero_target_is_the_fixed_path(self, seed):
        """``rciw_target=0`` (the default) never enters adaptive mode."""
        options = LauncherOptions(experiments=5, rciw_target=0.0)
        for m in _run(_requests(2), options, seed):
            assert m.rciw is None and m.converged is None
            assert m.experiments_spent == 5

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        pin=st.booleans(),
    )
    def test_adaptive_samples_are_a_prefix_of_fixed(self, seed, pin):
        """Stopping early never changes the draws that did happen."""
        adaptive = LauncherOptions(
            rciw_target=0.01,
            min_experiments=3,
            max_experiments=24,
            batch_size=4,
            pin=pin,
        )
        full = LauncherOptions(experiments=24, pin=pin)
        requests = _requests(3)
        for a, b in zip(_run(requests, adaptive, seed), _run(requests, full, seed)):
            assert a.experiment_tsc == b.experiment_tsc[: a.experiments_spent]


class TestStoppingBehaviour:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        loose=st.floats(min_value=0.001, max_value=0.5),
        tighter_by=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_stopping_is_monotone_in_target(self, seed, loose, tighter_by):
        """A tighter target never stops a configuration earlier."""
        base = LauncherOptions(
            min_experiments=3, max_experiments=24, batch_size=4, pin=False
        )
        requests = _requests(2)
        loose_run = _run(requests, base.with_(rciw_target=loose), seed)
        tight_run = _run(
            requests, base.with_(rciw_target=loose * tighter_by), seed
        )
        for tight, lo in zip(tight_run, loose_run):
            assert tight.experiments_spent >= lo.experiments_spent

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        target=st.floats(min_value=0.0001, max_value=0.2),
        pin=st.booleans(),
    )
    def test_ci_brackets_reported_mean(self, seed, target, pin):
        options = LauncherOptions(
            rciw_target=target,
            min_experiments=3,
            max_experiments=16,
            batch_size=3,
            pin=pin,
        )
        for m in _run(_requests(3), options, seed):
            assert m.ci_low <= _mean_cpi(m) <= m.ci_high
            assert m.rciw >= 0.0
            if m.converged:
                assert m.rciw <= target
            else:
                assert m.experiments_spent == 16

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        subset=st.sets(st.integers(min_value=0, max_value=4), min_size=1),
    )
    def test_batch_composition_independence(self, seed, subset):
        """A configuration's result never depends on its batch mates."""
        options = LauncherOptions(
            rciw_target=0.01, min_experiments=3, max_experiments=16, pin=False
        )
        requests = _requests(5)
        together = _run(requests, options, seed)
        alone = _run([requests[i] for i in sorted(subset)], options, seed)
        for m, i in zip(alone, sorted(subset)):
            assert m.experiment_tsc == together[i].experiment_tsc
            assert (m.ci_low, m.ci_high, m.rciw, m.converged) == (
                together[i].ci_low,
                together[i].ci_high,
                together[i].rciw,
                together[i].converged,
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_deterministic_per_seed(self, seed):
        options = LauncherOptions(
            rciw_target=0.02, min_experiments=3, max_experiments=16, pin=False
        )
        first = _run(_requests(3), options, seed)
        second = _run(_requests(3), options, seed)
        assert [m.experiment_tsc for m in first] == [
            m.experiment_tsc for m in second
        ]
        assert [m.rciw for m in first] == [m.rciw for m in second]


class TestBootstrap:
    def test_resample_indices_deterministic_and_shared(self):
        a = resample_indices(42, 10)
        b = resample_indices(42, 10)
        assert np.array_equal(a, b)
        assert a.shape[1] == 10
        assert a.min() >= 0 and a.max() < 10
        assert not np.array_equal(
            resample_indices(42, 10), resample_indices(43, 10)
        )

    def test_negative_seed_matches_absolute(self):
        assert np.array_equal(resample_indices(-42, 8), resample_indices(42, 8))

    @settings(max_examples=30, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.5, max_value=1e6),
            min_size=1,
            max_size=64,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ci_always_brackets_mean(self, samples, seed):
        lo, hi, rciw = bootstrap_ci(samples, resample_indices(seed, len(samples)))
        mean = float(np.mean(samples))
        assert lo <= mean <= hi
        assert rciw >= 0.0

    def test_single_sample_has_zero_width(self):
        lo, hi, rciw = bootstrap_ci([3.5], resample_indices(1, 1))
        assert lo == hi == 3.5
        assert rciw == 0.0

    def test_identical_samples_converge_immediately(self):
        lo, hi, rciw = bootstrap_ci([2.0] * 12, resample_indices(7, 12))
        assert lo == hi == 2.0
        assert rciw == 0.0

    def test_one_resample_matrix_per_round(self, monkeypatch):
        """Every configuration still sampling in a round has the same
        sample count, so a multi-configuration batch draws the bootstrap
        matrix once per round, not once per configuration."""
        from repro.launcher import measurement

        drawn = []

        def counting(seed, n_samples):
            drawn.append(n_samples)
            return resample_indices(seed, n_samples)

        monkeypatch.setattr(measurement, "resample_indices", counting)
        options = LauncherOptions(
            rciw_target=1e-6,
            min_experiments=3,
            max_experiments=32,
            batch_size=4,
        )
        results = _run(_requests(40), options, seed=11)
        assert {m.experiments_spent for m in results} == {32}
        assert drawn == [3, 7, 11, 15, 19, 23, 27, 31, 32]


class TestQualityFieldsFlow:
    def test_noisy_configs_spend_more(self):
        """The headline behaviour: experiments go where the noise is.

        The noise knob is the launcher's own stabilizer — baseline jitter
        scales as ``1/sqrt(repetitions)`` — so a short inner loop is a
        genuinely noisier configuration.  Aggregated over seeds because a
        single stream can draw an unusually tight prefix.
        """
        base = LauncherOptions(
            rciw_target=0.004,
            min_experiments=3,
            max_experiments=48,
            batch_size=4,
        )
        spent_stable, spent_noisy = [], []
        for seed in (7, 99, 123, 2024, 31337):
            spent_stable += [
                m.experiments_spent
                for m in _run(_requests(4), base.with_(repetitions=64), seed)
            ]
            spent_noisy += [
                m.experiments_spent
                for m in _run(_requests(4), base.with_(repetitions=2), seed)
            ]
        assert statistics.fmean(spent_noisy) >= 2 * statistics.fmean(
            spent_stable
        )

    def test_fixed_measurement_quality_fields_absent(self, launcher, movaps_u8, fast_options):
        m = launcher.run(movaps_u8, fast_options)
        assert m.rciw is None and m.ci_low is None and m.converged is None

    def test_launcher_run_carries_quality_fields(
        self, launcher, movaps_u8, fast_options
    ):
        m = launcher.run(
            movaps_u8,
            fast_options.with_(
                rciw_target=0.02, min_experiments=3, max_experiments=12
            ),
        )
        assert m.rciw is not None
        assert m.ci_low <= m.ci_high
        assert isinstance(m.converged, bool)
        assert 3 <= m.experiments_spent <= 12
