"""Environmental noise: the adversary MicroLauncher's stabilization fights.

Section 4.7 lists the launcher's stability measures: pin the experiment to
a core, disable interrupts, heat the instruction and data caches, repeat
the kernel in an inner loop, and repeat the measurement in an outer loop.
To make those measures *testable* in simulation, this module provides a
deterministic (seeded) noise process whose magnitude responds to exactly
those controls:

- unpinned runs suffer occasional migration spikes (large, rare),
- interrupt-enabled runs suffer periodic small spikes (timer ticks),
- cold-cache first measurements are inflated by the warm-up factor,
- every run carries a small baseline jitter that averages out over the
  inner-repetition loop (jitter scales as 1/sqrt(repetitions)).

With every control engaged, run-to-run spread collapses to the baseline —
the launcher's stability claim, reproduced as an assertable property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

@dataclass(frozen=True, slots=True)
class NoiseEnvironment:
    """Which stabilization measures are in effect for a measurement."""

    pinned: bool = True
    interrupts_disabled: bool = True
    warmed_up: bool = True
    inner_repetitions: int = 1

    def stabilized(self) -> bool:
        return self.pinned and self.interrupts_disabled and self.warmed_up


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Deterministic noise generator.

    Magnitudes are multiplicative factors applied to a measured duration;
    they are deliberately large enough that an unstabilized measurement is
    *obviously* unstable (the paper's motivation for MicroLauncher) and a
    stabilized one is repeatable to a fraction of a percent.
    """

    seed: int = 12345
    baseline_jitter: float = 0.004          # 0.4 % 1-sigma, per measurement
    migration_probability: float = 0.15     # unpinned: chance of a spike
    migration_magnitude: float = 0.25       # ... costing up to +25 %
    interrupt_rate_per_ms: float = 1.0      # timer ticks while unmasked
    interrupt_cost_us: float = 8.0          # each tick steals ~8 us
    cold_start_factor: float = 1.6          # first run without warm-up

    def rng_for(self, experiment: int) -> np.random.Generator:
        """Independent, reproducible stream per outer-loop experiment.

        ``experiment`` may be negative (the overhead-measurement slot is
        conventionally -1); seed material must be non-negative.
        """
        return np.random.default_rng(
            np.random.SeedSequence((abs(self.seed), experiment + 1_000_003))
        )

    def perturb(
        self,
        duration_ns: float,
        env: NoiseEnvironment,
        experiment: int,
        *,
        first_run: bool = False,
    ) -> float:
        """Apply the environment's noise to an ideal duration."""
        rng = self.rng_for(experiment)
        reps = max(1, env.inner_repetitions)
        # Baseline jitter averages down with the inner-loop length: the
        # stated purpose of the inner loop (section 4, "augments the
        # evaluation time of the kernel, further stabilizing the results").
        jitter_sigma = self.baseline_jitter / np.sqrt(reps)
        factor = 1.0 + rng.normal(0.0, jitter_sigma)
        if not env.pinned and rng.random() < self.migration_probability:
            factor += rng.random() * self.migration_magnitude
        if not env.interrupts_disabled:
            expected_ticks = (duration_ns / 1e6) * self.interrupt_rate_per_ms
            ticks = rng.poisson(max(expected_ticks, 0.0))
            duration_ns += ticks * self.interrupt_cost_us * 1e3
        if first_run and not env.warmed_up:
            factor *= self.cold_start_factor
        return duration_ns * max(factor, 0.5)

    # ------------------------------------------------------------------ #
    # vectorized fast path                                                 #
    # ------------------------------------------------------------------ #

    def perturb_batch(
        self,
        durations_ns: object,
        env: NoiseEnvironment,
        experiments: Sequence[int],
        first_run_mask: object = None,
    ) -> np.ndarray:
        """Vectorized :meth:`perturb`: one call for many experiments.

        ``durations_ns`` is an array whose *last* axis aligns with
        ``experiments`` — pass shape ``(n_experiments,)`` for one
        configuration or ``(n_configs, n_experiments)`` for a whole sweep
        sharing this noise model.  ``first_run_mask`` (aligned with
        ``experiments``) marks which experiments are a configuration's
        first run.  Every element of the result is bit-identical to the
        corresponding sequential call
        ``perturb(durations_ns[..., i], env, experiments[i], first_run=first_run_mask[i])``
        — the per-experiment stream definition is frozen API, and the
        vectorized arithmetic replays the scalar operation order exactly.
        """
        durations = np.array(durations_ns, dtype=np.float64, ndmin=1)
        experiments = [int(e) for e in experiments]
        n = len(experiments)
        if durations.shape[-1] != n:
            raise ValueError(
                f"durations last axis ({durations.shape[-1]}) must match "
                f"the number of experiments ({n})"
            )
        reps = max(1, env.inner_repetitions)
        jitter_sigma = self.baseline_jitter / np.sqrt(reps)

        # One live generator per experiment, consumed in scalar draw order.
        generators = [self.rng_for(e) for e in experiments]
        factors = np.empty(n)
        for i, rng in enumerate(generators):
            factor = 1.0 + rng.normal(0.0, jitter_sigma)
            if not env.pinned and rng.random() < self.migration_probability:
                factor += rng.random() * self.migration_magnitude
            factors[i] = factor
        if not env.interrupts_disabled:
            # The poisson tick count is the one duration-dependent draw.
            expected = np.maximum(
                durations / 1e6 * self.interrupt_rate_per_ms, 0.0
            )
            ticks = np.empty(durations.shape)
            if durations.ndim == 1:
                for i, rng in enumerate(generators):
                    ticks[i] = rng.poisson(expected[i])
            else:
                # Each configuration perturbs with a *fresh* generator in
                # the sequential path; replay that by snapshotting the
                # post-prefix state and restoring it per configuration.
                for i, rng in enumerate(generators):
                    state = rng.bit_generator.state
                    for k in range(durations.shape[0]):
                        rng.bit_generator.state = state
                        ticks[k, i] = rng.poisson(expected[k, i])
            durations = durations + ticks * self.interrupt_cost_us * 1e3

        if first_run_mask is not None and not env.warmed_up:
            mask = np.asarray(first_run_mask, dtype=bool)
            factors = np.where(mask, factors * self.cold_start_factor, factors)
        return durations * np.maximum(factors, 0.5)
