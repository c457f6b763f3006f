"""Throughput benchmark: vectorized measurement core vs the scalar loop.

Times a 1000-configuration x 32-experiment sweep two ways:

- **sequential**: the pre-batching ``run_measurement`` implementation,
  kept verbatim below — one noise-stream construction per (config,
  experiment) pair, exactly what the launcher did before the vectorized
  core landed;
- **batch**: one :func:`run_measurement_batch` call, which builds each
  experiment's noise stream once and shares it across all configurations.

Asserts the batch path is at least 5x faster and writes the numbers to
``BENCH_measurement.json`` (repo root) for the CI regression gate — see
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.launcher import LauncherOptions, MeasurementRequest
from repro.launcher.measurement import (
    CALL_OVERHEAD_NS,
    Measurement,
    run_measurement_batch,
)
from repro.machine.noise import NoiseEnvironment, NoiseModel

N_CONFIGS = 1000
N_EXPERIMENTS = 32
MIN_SPEEDUP = 5.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_measurement.json"


def _sequential_reference(requests, *, options, freq_ghz, tsc_ghz, noise):
    """The pre-batching measurement loop, verbatim (the timing baseline)."""
    env = NoiseEnvironment(
        pinned=options.pin,
        interrupts_disabled=options.disable_interrupts,
        warmed_up=options.warmup,
        inner_repetitions=options.repetitions,
    )
    out = []
    for request in requests:
        overhead_estimate_ns = 0.0
        if options.subtract_overhead:
            raw = options.repetitions * CALL_OVERHEAD_NS
            overhead_estimate_ns = noise.perturb(raw, env, experiment=-1)
        experiment_tsc = []
        for e in range(options.experiments):
            duration_ns = options.repetitions * (
                request.ideal_call_ns + CALL_OVERHEAD_NS
            )
            duration_ns = noise.perturb(
                duration_ns, env, experiment=e, first_run=(e == 0)
            )
            duration_ns -= overhead_estimate_ns
            experiment_tsc.append(max(duration_ns, 0.0) * tsc_ghz)
        out.append(
            Measurement(
                kernel_name=request.kernel_name,
                label=options.label,
                trip_count=options.trip_count,
                repetitions=options.repetitions,
                loop_iterations=request.loop_iterations,
                elements_per_iteration=request.elements_per_iteration,
                n_memory_instructions=request.n_memory_instructions,
                experiment_tsc=tuple(experiment_tsc),
                freq_ghz=freq_ghz,
                tsc_ghz=tsc_ghz,
                aggregator=options.aggregator,
            )
        )
    return out


def _requests():
    return [
        MeasurementRequest(
            ideal_call_ns=100.0 + 0.5 * k,
            kernel_name=f"config{k:04d}",
            loop_iterations=128,
            elements_per_iteration=4,
            n_memory_instructions=2,
        )
        for k in range(N_CONFIGS)
    ]


def test_batch_speedup_over_sequential():
    options = LauncherOptions(experiments=N_EXPERIMENTS, repetitions=32)
    noise = NoiseModel(seed=2012)
    requests = _requests()
    shared = dict(options=options, freq_ghz=2.67, tsc_ghz=2.66, noise=noise)

    start = time.perf_counter()
    sequential = _sequential_reference(requests, **shared)
    seq_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = run_measurement_batch(requests, **shared)
    batch_seconds = time.perf_counter() - start

    assert batch == sequential  # speed means nothing if the bits moved
    speedup = seq_seconds / batch_seconds
    record = {
        "benchmark": "measurement_throughput",
        "configs": N_CONFIGS,
        "experiments": N_EXPERIMENTS,
        "sequential_seconds": round(seq_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(speedup, 2),
        "configs_per_second": round(N_CONFIGS / batch_seconds, 1),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nsequential: {seq_seconds:.3f}s  batch: {batch_seconds:.3f}s  "
          f"speedup: {speedup:.1f}x  -> {RESULT_PATH.name}")
    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x); "
        f"see {RESULT_PATH}"
    )
