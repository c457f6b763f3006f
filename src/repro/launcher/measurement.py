"""The Fig.-10 measurement algorithm and its result records.

MicroLauncher's timing pseudo-algorithm (section 4.5):

1. measure the empty-call overhead,
2. call the benchmark function once to heat the instruction and data
   caches,
3. run the outer experiment loop; each experiment times ``repetitions``
   back-to-back kernel calls with the TSC,
4. subtract the overhead and divide by repetitions x iterations for
   cycles per iteration.

Here the "kernel call" is simulated: its ideal duration comes from the
machine model, the TSC is the simulated reference counter, and the noise
process perturbs every timed region according to the environment controls
in effect — so warm-up, pinning, interrupt masking, inner-loop length and
overhead subtraction all have measurable consequences.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.launcher.options import LauncherOptions
from repro.launcher.stopping import (
    EXPERIMENT_BUCKETS,
    bootstrap_ci,
    resample_indices,
)
from repro.machine.noise import NoiseEnvironment, NoiseModel

#: Simulated cost of one kernel-function invocation (call, prologue,
#: argument setup) — what the overhead-subtraction step removes.
CALL_OVERHEAD_NS = 100.0

#: Aggregators a measurement accepts (mirrors ``LauncherOptions``; the
#: cache deserializes measurements without going through options, so the
#: record validates its own copy).
AGGREGATORS = ("min", "median", "mean")


@dataclass(frozen=True, slots=True)
class Measurement:
    """One measured kernel configuration (the launcher's CSV row).

    ``experiment_tsc`` holds the outer-loop experiments' TSC counts after
    overhead subtraction; all derived metrics aggregate over it with the
    options' aggregator (the paper takes minima, "though the variance was
    minimal").
    """

    kernel_name: str
    label: str
    trip_count: int
    repetitions: int
    loop_iterations: int
    elements_per_iteration: int
    n_memory_instructions: int
    experiment_tsc: tuple[float, ...]
    freq_ghz: float
    tsc_ghz: float
    aggregator: str = "min"
    alignments: tuple[int, ...] = ()
    core: int | None = None
    n_cores: int = 1
    bottleneck: str = ""
    metadata: dict[str, object] = field(default_factory=dict)
    #: Adaptive-stopping quality fields — ``None`` on fixed-count runs so
    #: existing records (and their serialized form) are unchanged.
    ci_low: float | None = None
    ci_high: float | None = None
    rciw: float | None = None
    converged: bool | None = None

    def __post_init__(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {self.aggregator!r}; have {AGGREGATORS}"
            )

    def _aggregate(self, values: Sequence[float]) -> float:
        if self.aggregator == "min":
            return min(values)
        if self.aggregator == "median":
            return statistics.median(values)
        if self.aggregator == "mean":
            return statistics.fmean(values)
        raise ValueError(f"unknown aggregator {self.aggregator!r}")

    @property
    def tsc_per_call(self) -> float:
        """Aggregated TSC cycles per kernel invocation."""
        return self._aggregate(self.experiment_tsc) / self.repetitions

    @property
    def cycles_per_iteration(self) -> float:
        """The paper's headline metric: TSC cycles per loop iteration.

        "MicroLauncher retrieves the iteration count and, with the
        benchmark program's elapsed time, calculates the number of cycles
        per iteration" (section 4.4)."""
        return self.tsc_per_call / self.loop_iterations

    @property
    def cycles_per_element(self) -> float:
        return self.cycles_per_iteration / self.elements_per_iteration

    @property
    def cycles_per_memory_instruction(self) -> float:
        """Average cycles per load/store — Figs. 11/12's Y axis."""
        if self.n_memory_instructions == 0:
            return self.cycles_per_iteration
        return self.cycles_per_iteration / self.n_memory_instructions

    @property
    def experiments_spent(self) -> int:
        """Outer-loop experiments actually run (= requested count in
        fixed mode; under adaptive stopping, where sampling stopped)."""
        return len(self.experiment_tsc)

    @property
    def min_cycles_per_iteration(self) -> float:
        return min(self.experiment_tsc) / self.repetitions / self.loop_iterations

    @property
    def max_cycles_per_iteration(self) -> float:
        return max(self.experiment_tsc) / self.repetitions / self.loop_iterations

    @property
    def spread(self) -> float:
        """Run-to-run instability, (max - min) / min — the stability
        figure of merit of section 4.7."""
        lo = self.min_cycles_per_iteration
        hi = self.max_cycles_per_iteration
        return (hi - lo) / lo if lo else 0.0

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds for the whole measured run."""
        return sum(self.experiment_tsc) / self.tsc_ghz * 1e-9

    @property
    def counters(self) -> dict[str, float]:
        """Per-call performance-counter estimates (empty unless the run
        used the "events" evaluation library, section 4.2)."""
        counters = self.metadata.get("counters")
        return dict(counters) if isinstance(counters, dict) else {}


@dataclass(slots=True)
class MeasurementSeries:
    """An ordered collection of measurements from one sweep."""

    measurements: list[Measurement] = field(default_factory=list)

    def append(self, m: Measurement) -> None:
        self.measurements.append(m)

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self.measurements)

    def __len__(self) -> int:
        return len(self.measurements)

    def __getitem__(self, index: int) -> Measurement:
        return self.measurements[index]

    def cycles_per_iteration_array(self) -> np.ndarray:
        """Every measurement's cycles-per-iteration, computed in one pass.

        When the series is uniform (same experiment count and aggregator
        throughout — the normal sweep shape) the aggregation runs as one
        vectorized reduction over the experiment matrix instead of one
        property chain per measurement; ragged or mean-aggregated series
        fall back to the per-measurement properties.  Values are
        identical either way.
        """
        ms = self.measurements
        if not ms:
            return np.empty(0)
        n_exp = len(ms[0].experiment_tsc)
        aggregator = ms[0].aggregator
        uniform = all(
            len(m.experiment_tsc) == n_exp and m.aggregator == aggregator
            for m in ms
        )
        # fmean sums with compensated precision; numpy's pairwise mean can
        # differ in the last ulp, so "mean" keeps the scalar path.
        if not uniform or aggregator == "mean":
            return np.array([m.cycles_per_iteration for m in ms])
        tsc = np.array([m.experiment_tsc for m in ms])
        aggregated = (
            tsc.min(axis=1) if aggregator == "min" else np.median(tsc, axis=1)
        )
        repetitions = np.array([m.repetitions for m in ms], dtype=np.float64)
        iterations = np.array([m.loop_iterations for m in ms], dtype=np.float64)
        return aggregated / repetitions / iterations

    def best(self) -> Measurement:
        """The fastest configuration by cycles per iteration."""
        if not self.measurements:
            raise ValueError("empty series")
        return self.measurements[int(np.argmin(self.cycles_per_iteration_array()))]

    def worst(self) -> Measurement:
        if not self.measurements:
            raise ValueError("empty series")
        return self.measurements[int(np.argmax(self.cycles_per_iteration_array()))]

    def group_min(self, key: str) -> dict[object, Measurement]:
        """Per-group minima, the aggregation behind Figs. 11/12 ("For each
        unroll group, the minimum value was taken")."""
        values = self.cycles_per_iteration_array()
        groups: dict[object, Measurement] = {}
        group_values: dict[object, float] = {}
        for m, value in zip(self.measurements, values):
            k = m.metadata.get(key)
            if k not in groups or value < group_values[k]:
                groups[k] = m
                group_values[k] = value
        return groups


@dataclass(frozen=True, slots=True)
class MeasurementRequest:
    """One configuration of a batched measurement sweep.

    Everything the Fig.-10 replay needs per configuration; the shared
    knobs (options, frequencies, noise model) live on the batch
    call so a whole kernel family can be timed in one vectorized pass.
    """

    ideal_call_ns: float
    kernel_name: str
    loop_iterations: int
    elements_per_iteration: int
    n_memory_instructions: int
    alignments: tuple[int, ...] = ()
    core: int | None = None
    n_cores: int = 1
    bottleneck: str = ""
    metadata: dict[str, object] | None = None
    per_experiment_ideal_ns: Sequence[float] | None = None


def run_measurement_batch(
    requests: Sequence[MeasurementRequest],
    *,
    options: LauncherOptions,
    freq_ghz: float,
    tsc_ghz: float,
    noise: NoiseModel,
) -> list[Measurement]:
    """Replay the Fig.-10 algorithm for many configurations at once.

    All configurations share one options/noise context — the shape of a
    variant-family sweep, where only the kernel changes.  Experiments run
    in rounds, each one
    :meth:`~repro.machine.noise.NoiseModel.perturb_batch` grid over the
    configurations still sampling.  A fixed-count run is a single round
    of ``options.experiments``.  Under adaptive stopping the first round
    is ``min_experiments``, and later rounds add ``batch_size`` for every
    configuration whose bootstrapped RCIW still exceeds ``rciw_target``
    (see :mod:`repro.launcher.stopping`), up to ``max_experiments``.
    Noise draws are element-wise per experiment index, so every adaptive
    sample sequence is a prefix of the fixed-count run's.
    """
    requests = list(requests)
    if not requests:
        return []
    env = NoiseEnvironment(
        pinned=options.pin,
        interrupts_disabled=options.disable_interrupts,
        warmed_up=options.warmup,
        inner_repetitions=options.repetitions,
    )
    budget = options.experiment_budget

    # Step 1 - overhead measurement (an empty-call timing, itself noisy).
    # The overhead stream (-1) and raw duration are configuration-
    # independent, so one estimate serves the whole batch.
    overhead_estimate_ns = 0.0
    if options.subtract_overhead:
        raw = options.repetitions * CALL_OVERHEAD_NS
        overhead_estimate_ns = float(
            noise.perturb_batch(np.array([raw]), env, (-1,))[0]
        )

    # Steps 2-3 - warm-up happens implicitly: when options.warmup is set
    # the noise model never applies the cold-start factor; when it is not,
    # each configuration's first experiment pays it.  Ideal durations
    # cover the whole budget; rounds slice columns out of this grid.
    ideals = np.empty((len(requests), budget))
    for k, request in enumerate(requests):
        if request.per_experiment_ideal_ns is not None:
            per_experiment = list(request.per_experiment_ideal_ns)
            if len(per_experiment) < budget:
                raise ValueError(
                    f"per_experiment_ideal_ns has {len(per_experiment)} "
                    f"entries; need {budget}"
                )
            ideals[k] = per_experiment[:budget]
        else:
            ideals[k] = request.ideal_call_ns
    durations = options.repetitions * (ideals + CALL_OVERHEAD_NS)

    tsc_samples: list[list[float]] = [[] for _ in requests]
    quality: list[tuple[float, float, float, bool] | None] = [None] * len(
        requests
    )
    adaptive = options.adaptive
    live = list(range(len(requests)))
    n_done = 0
    step = options.min_experiments if adaptive else options.experiments
    while live:
        step = min(step, budget - n_done)
        # Every configuration is live in the first round.
        rows = durations if n_done == 0 else durations[live]
        perturbed = noise.perturb_batch(
            rows[:, n_done : n_done + step],
            env,
            range(n_done, n_done + step),
            first_run_mask=np.arange(n_done, n_done + step) == 0,
        )
        tsc = np.maximum(perturbed - overhead_estimate_ns, 0.0) * tsc_ghz
        n_done += step
        if adaptive:
            # Every live configuration has n_done samples: one draw
            # serves the round.
            indices = resample_indices(noise.seed, n_done)
        still_live = []
        for cfg, row in zip(live, tsc.tolist()):
            tsc_samples[cfg].extend(row)
            if adaptive:
                # The bootstrap runs on the headline metric, not raw TSC,
                # so rciw_target means the same across repetition and
                # unroll settings.
                cpi = np.asarray(tsc_samples[cfg]) / (
                    options.repetitions * requests[cfg].loop_iterations
                )
                ci_low, ci_high, rciw = bootstrap_ci(cpi, indices)
                converged = rciw <= options.rciw_target
                if converged or n_done >= budget:
                    quality[cfg] = (ci_low, ci_high, rciw, converged)
                    obs.count(
                        "stopping.converged" if converged else "stopping.capped"
                    )
                    obs.observe(
                        "stopping.experiments",
                        float(n_done),
                        bounds=EXPERIMENT_BUCKETS,
                    )
                else:
                    still_live.append(cfg)
        live = still_live
        step = options.batch_size

    results = []
    for k, request in enumerate(requests):
        ci_low, ci_high, rciw, converged = quality[k] or (None,) * 4
        results.append(
            Measurement(
                kernel_name=request.kernel_name,
                label=options.label,
                trip_count=options.trip_count,
                repetitions=options.repetitions,
                loop_iterations=request.loop_iterations,
                elements_per_iteration=request.elements_per_iteration,
                n_memory_instructions=request.n_memory_instructions,
                experiment_tsc=tuple(tsc_samples[k]),
                freq_ghz=freq_ghz,
                tsc_ghz=tsc_ghz,
                aggregator=options.aggregator,
                alignments=request.alignments,
                core=request.core,
                n_cores=request.n_cores,
                bottleneck=request.bottleneck,
                metadata=dict(request.metadata or {}),
                ci_low=ci_low,
                ci_high=ci_high,
                rciw=rciw,
                converged=converged,
            )
        )
    return results
