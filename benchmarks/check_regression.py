#!/usr/bin/env python
"""Gate CI on benchmark regressions.

Every gate is one row of :data:`GATES`: a value read from a fresh
``BENCH_*.json`` (and, for cross-machine throughput bands, the committed
baseline of the same name under ``benchmarks/``), compared against a
fixed limit.  A gate whose current file is absent is skipped.

Throughput bands are 2x, not a few percent, because CI machines differ:
a genuine regression (losing a vectorized path, a cache, the pool) shows
up as 10x or more.  The other gates are machine-relative ratios from one
run, or deterministic quantities, so their limits hold on any host.

Usage (after the ``benchmarks/test_*.py`` runs wrote their results to
the repo root)::

    python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent

#: Cross-machine throughput band: baseline/current may not exceed this.
MAX_REGRESSION = 2.0


class Gate(NamedTuple):
    name: str
    current: str
    baseline: str | None
    #: ``value(current, baseline)`` with both files parsed (baseline
    #: ``None`` when the gate has none).
    value: Callable[[dict, dict | None], float]
    op: str
    limit: float
    message: str


def _slowdown(then: float, now: float) -> float:
    return then / now if now else float("inf")


GATES: tuple[Gate, ...] = (
    Gate(
        "measurement slowdown", "BENCH_measurement.json",
        "BENCH_measurement_baseline.json",
        lambda c, b: _slowdown(b["configs_per_second"], c["configs_per_second"]),
        "<=", MAX_REGRESSION,
        "measurement throughput regressed vs the committed baseline",
    ),
    # Absolute ns: the quantity is already a delta over a bare loop.
    Gate(
        "obs disabled span ns", "BENCH_obs.json", None,
        lambda c, b: c["disabled_added_ns_per_span"],
        "<=", 2_000.0,
        "a disabled observability span got expensive; the no-op fast path regressed",
    ),
    Gate(
        "generation slowdown", "BENCH_generation.json",
        "BENCH_generation_baseline.json",
        lambda c, b: _slowdown(b["variants_per_second"], c["variants_per_second"]),
        "<=", MAX_REGRESSION,
        "warm-cache generation dispatch regressed vs the committed baseline",
    ),
    # Seeded noise streams: both stopping gates are deterministic.
    Gate(
        "stopping stable savings", "BENCH_stopping.json", None,
        lambda c, b: c["stable_savings"],
        ">=", 2.0,
        "adaptive stopping stopped saving on the stable half; the stopping rule regressed",
    ),
    Gate(
        "stopping noisy minus stable spent", "BENCH_stopping.json", None,
        lambda c, b: c["noisy_mean_spent"] - c["stable_mean_spent"],
        ">", 0.0,
        "noisy configurations no longer receive more experiments than stable ones",
    ),
    Gate(
        "characterize slowdown", "BENCH_characterize.json",
        "BENCH_characterize_baseline.json",
        lambda c, b: _slowdown(b["probe_jobs_per_second"], c["probe_jobs_per_second"]),
        "<=", MAX_REGRESSION,
        "probe-campaign throughput regressed vs the committed baseline",
    ),
    Gate(
        "characterize solve fraction", "BENCH_characterize.json", None,
        lambda c, b: c["solve_fraction"],
        "<=", 0.25,
        "table solving rivals the probe campaign's wall time; the solver stopped being cheap",
    ),
    Gate(
        "store cold-load speedup at 1e5", "BENCH_store.json", None,
        lambda c, b: c["cold_load_speedup_1e5"],
        ">=", 10.0,
        "sharded cold-load lost its edge over JSONL; the index read path regressed",
    ),
    # Over a 100x row increase: linear would be ~100x, binary search is flat.
    Gate(
        "store membership growth", "BENCH_store.json", None,
        lambda c, b: c["membership_growth"],
        "<=", 10.0,
        "sharded membership cost is no longer sublinear in row count",
    ),
    Gate(
        "dispatch speedup vs pre-pool path", "BENCH_dispatch.json", None,
        lambda c, b: c["speedup_vs_prepr"],
        ">=", 3.0,
        "warm dispatch lost its edge over the pre-pool executor path",
    ),
    Gate(
        "dispatch warm/fresh seconds", "BENCH_dispatch.json", None,
        lambda c, b: _slowdown(c["spawn"]["warm_best_s"], c["spawn"]["fresh_s"]),
        "<", 1.0,
        "a warm campaign is no faster than a fresh one; pool reuse broke",
    ),
    Gate(
        "dispatch slowdown", "BENCH_dispatch.json", "BENCH_dispatch_baseline.json",
        lambda c, b: _slowdown(b["warm"]["jobs_per_s"], c["warm"]["jobs_per_s"]),
        "<=", MAX_REGRESSION,
        "warm dispatch throughput regressed vs the committed baseline",
    ),
)

_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def check(results_dir: Path, baseline_dir: Path) -> int:
    """Evaluate every gate; 1 if any failed, else 0."""
    failed = 0
    for gate in GATES:
        path = results_dir / gate.current
        if not path.exists():
            print(f"{gate.name}: {gate.current} not present, skipping")
            continue
        current = json.loads(path.read_text())
        baseline = (
            json.loads((baseline_dir / gate.baseline).read_text())
            if gate.baseline
            else None
        )
        value = gate.value(current, baseline)
        ok = _OPS[gate.op](value, gate.limit)
        print(f"{gate.name}: {value:.4g} (limit {gate.op} {gate.limit:g})")
        if not ok:
            print(f"FAIL: {gate.name}: {gate.message}", file=sys.stderr)
            failed = 1
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=Path, default=HERE.parent,
        help="where the fresh BENCH_*.json files are (default: repo root)",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=HERE,
        help="where the committed *_baseline.json files are "
        "(default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    if check(args.results_dir, args.baseline_dir):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
