"""Adaptive RCIW stopping: spend experiments where the noise is.

Fixed-count measurement runs every configuration for
``LauncherOptions.experiments`` outer-loop experiments regardless of how
noisy it is — stable configs waste time, noisy ones ship untrustworthy
numbers.  This module holds the sequential-sampling stopping rule
(nanoBench's variability-aware measurement, with the LLM4JMH RCIW
convergence rule as the stopping test) that
:func:`~repro.launcher.measurement.run_measurement_batch` applies between
its sampling rounds: bootstrap the confidence interval of mean
cycles-per-iteration after each round, and stop a configuration as soon
as its *relative confidence-interval width* ``(ci_high - ci_low) /
mean`` falls to or under ``rciw_target`` — or unconditionally at
``max_experiments``.  A fixed-count run is the one-round case of the
same loop, with no bootstrap.

Determinism is structural, not incidental:

- The noise process draws per ``(seed, experiment-index)`` stream, and
  :meth:`~repro.machine.noise.NoiseModel.perturb_batch` is element-wise
  — a cell depends only on its own duration and experiment index, never
  on which other configurations share the batch.  Adaptive samples are
  therefore a *prefix* of the fixed-count run's samples: configurations
  that converge drop out of later rounds without shifting anybody
  else's draws.
- Bootstrap resampling uses a shared index matrix drawn only from
  ``(seed, n_samples)`` — independent of configuration order, batch
  composition, chunking, worker count, and resume position.

Both properties are pinned by ``tests/launcher/test_stopping.py`` and
``tests/engine/test_equivalence.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Bootstrap resamples per convergence check.  Enough for a stable
#: percentile CI of the mean at microbenchmark sample sizes; small
#: enough that the check is negligible next to the perturbation grid.
BOOTSTRAP_RESAMPLES = 200

#: Two-sided confidence level of the bootstrapped interval.
CONFIDENCE = 0.95

#: Histogram bounds for the per-job experiments-spent metric.
EXPERIMENT_BUCKETS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Seed-sequence tag separating bootstrap streams from the noise
#: process's per-experiment streams (which use ``experiment + 1_000_003``).
_BOOTSTRAP_STREAM_TAG = 2_000_003


def adaptive_overrides(
    rciw_target: float | None = None,
    min_experiments: int | None = None,
    max_experiments: int | None = None,
    batch_size: int | None = None,
) -> dict[str, object]:
    """Non-``None`` adaptive knobs as ``LauncherOptions`` field overrides.

    The CLIs and the analysis experiments thread optional adaptive
    settings through to option construction; leaving a knob unset must
    leave the corresponding field untouched (digest stability — see
    ``repro.engine.serialize.options_to_dict``), so only explicit values
    survive into the override dict.
    """
    overrides = {
        "rciw_target": rciw_target,
        "min_experiments": min_experiments,
        "max_experiments": max_experiments,
        "batch_size": batch_size,
    }
    return {k: v for k, v in overrides.items() if v is not None}


#: Default stopping parameters for instruction-characterization probes
#: (``repro.characterize``).  Probe kernels are register-only — no memory
#: streams, so the noise floor is the baseline jitter alone — and the
#: solver differences pairs of probe readings, doubling their error.
#: A 1 % RCIW target converges in the minimum batch on a quiet machine
#: while still bounding the table's solve error well under one cycle.
PROBE_RCIW_TARGET = 0.01
PROBE_MIN_EXPERIMENTS = 3
PROBE_MAX_EXPERIMENTS = 32
PROBE_BATCH_SIZE = 4


def probe_stopping_defaults(
    rciw_target: float | None = None,
    min_experiments: int | None = None,
    max_experiments: int | None = None,
    batch_size: int | None = None,
) -> dict[str, object]:
    """Adaptive-stopping option overrides for characterization probes.

    Like :func:`adaptive_overrides`, but every unset knob falls back to
    the probe defaults above instead of staying untouched: a
    characterization campaign is always adaptive — fixed-count probes
    would spend the whole budget on configurations that converge in the
    first batch.
    """
    return {
        "rciw_target": PROBE_RCIW_TARGET if rciw_target is None else rciw_target,
        "min_experiments": (
            PROBE_MIN_EXPERIMENTS if min_experiments is None else min_experiments
        ),
        "max_experiments": (
            PROBE_MAX_EXPERIMENTS if max_experiments is None else max_experiments
        ),
        "batch_size": PROBE_BATCH_SIZE if batch_size is None else batch_size,
    }


def resample_indices(seed: int, n_samples: int) -> np.ndarray:
    """The shared bootstrap index matrix for ``n_samples`` observations.

    Shape ``(BOOTSTRAP_RESAMPLES, n_samples)``, values in
    ``[0, n_samples)``.  Drawn only from ``(|seed|, n_samples)`` so every
    configuration with the same sample count resamples identically — the
    property that makes adaptive convergence independent of batch
    composition and config order.  Every configuration still sampling in
    a round of :func:`~repro.launcher.measurement.run_measurement_batch`
    has the same count, so the batch draws this matrix once per round.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((abs(seed), _BOOTSTRAP_STREAM_TAG, n_samples))
    )
    return rng.integers(0, n_samples, size=(BOOTSTRAP_RESAMPLES, n_samples))


def bootstrap_ci(
    samples: Sequence[float], indices: np.ndarray
) -> tuple[float, float, float]:
    """Bootstrapped CI of the mean, clamped to bracket the sample mean.

    ``indices`` is the resample matrix for ``len(samples)`` observations,
    ``resample_indices(seed, len(samples))``; the caller draws it so that
    configurations sharing a sample count share one draw.

    Returns ``(ci_low, ci_high, rciw)`` where ``rciw`` is the relative
    CI width ``(ci_high - ci_low) / mean``.  The percentile interval is
    clamped outward to include the sample mean so the reported bounds
    always bracket the reported statistic (a documented invariant, not a
    numerical accident — with few samples the percentile method can
    otherwise exclude the point estimate).
    """
    values = np.asarray(samples, dtype=np.float64)
    mean = float(values.mean())
    if len(values) < 2:
        return mean, mean, 0.0
    means = values[indices].mean(axis=1)
    alpha = 100.0 * (1.0 - CONFIDENCE) / 2.0
    lo, hi = np.percentile(means, (alpha, 100.0 - alpha))
    ci_low = min(float(lo), mean)
    ci_high = max(float(hi), mean)
    if mean > 0.0:
        rciw = (ci_high - ci_low) / mean
    else:
        rciw = 0.0 if ci_high == ci_low else float("inf")
    return ci_low, ci_high, rciw
