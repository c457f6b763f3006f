#!/usr/bin/env python
"""Gate CI on benchmark regressions.

Compares a fresh ``BENCH_measurement.json`` (written by
``benchmarks/test_measurement_throughput.py``) against the committed
baseline and fails when throughput dropped by more than the allowed
factor.  Machine-to-machine variance is why the gate is 2x, not a few
percent: the benchmark is single-threaded pure Python + numpy, so a
genuine regression (losing the vectorized path, breaking the stream
cache) shows up as 10x-50x, far outside the noise band.

When ``BENCH_obs.json`` (written by ``benchmarks/test_obs_overhead.py``)
is present it is gated too: the observability layer's *disabled* span
must stay sub-microsecond per call — losing the no-op fast path would
tax every instrumented hot loop even with tracing off.

``BENCH_generation.json`` (written by
``benchmarks/test_generation_throughput.py``) is likewise gated when
present: warm-cache deferred campaign dispatch must not lose its
throughput edge over parent-side expansion — a regression here means the
generation cache or the KernelRef path stopped short-circuiting the pass
pipeline.

``BENCH_stopping.json`` (written by
``benchmarks/test_stopping_savings.py``) gates adaptive RCIW stopping
when present: the stable half of a stable/noisy mix must keep saving at
least 2x of the fixed experiment budget, and the noisy half must keep
receiving more experiments than the stable half.  Both quantities are
deterministic (seeded noise streams), so losing either means the
stopping rule itself changed — not the machine.

``BENCH_characterize.json`` (written by
``benchmarks/test_characterize.py``) gates the instruction-
characterization pipeline when present: the full-ISA probe campaign
must keep its jobs/s within the usual 2x band of the committed
baseline, and the table solve must stay a small fraction of the
campaign's wall time — the solve is closed-form arithmetic over a few
hundred readings, so a solve that rivals the campaign in cost means it
stopped being the cheap pass it is.

``BENCH_store.json`` (written by ``benchmarks/test_store_scale.py``)
gates the sharded result store when present.  Both gates are
machine-relative ratios measured within one run, so no cross-machine
baseline arithmetic is involved: cold-loading a 10^5-row cache must stay
>= 10x faster than a legacy JSONL file (losing this means the index is no
longer trusted and loads re-parse payloads), and membership-probe cost
must stay sublinear as the store grows 100x (losing this means lookups
degraded from binary search to scanning).

``BENCH_dispatch.json`` (written by
``benchmarks/test_dispatch_throughput.py``) gates the persistent worker
runtime when present.  Two gates are machine-relative ratios from one
run: warm dispatch must keep its >= 3x edge over the replicated pre-pool
executor path (losing this means the pool, packed transport, or memo
persistence stopped paying), and a warm back-to-back campaign must beat
the fresh one (losing this means pool reuse itself broke).  The third
gate compares warm jobs/s against the committed baseline within the
usual 2x cross-machine band.

Usage::

    python benchmarks/check_regression.py \
        --current BENCH_measurement.json \
        --baseline benchmarks/BENCH_measurement_baseline.json \
        --obs-current BENCH_obs.json \
        --gen-current BENCH_generation.json \
        --gen-baseline benchmarks/BENCH_generation_baseline.json \
        --stopping-current BENCH_stopping.json \
        --store-current BENCH_store.json \
        --charact-current BENCH_characterize.json \
        --charact-baseline benchmarks/BENCH_characterize_baseline.json \
        --dispatch-current BENCH_dispatch.json \
        --dispatch-baseline benchmarks/BENCH_dispatch_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MAX_REGRESSION = 2.0
#: Absolute ceiling for the disabled observability path, ns per span.
#: An absolute gate (not a ratio) because the quantity is already a
#: delta over a bare loop and CI machines vary less in nanoseconds
#: added than in raw throughput.
MAX_OBS_DISABLED_NS = 2_000.0
#: Adaptive stopping must save at least this on the stable half of the
#: stable/noisy benchmark mix.  Deterministic (seeded noise), so the
#: floor is tight relative to the ~10x the current rule achieves.
MIN_STOPPING_SAVINGS = 2.0
#: Table solving must stay this fraction (or less) of probe-campaign
#: wall time — machine-relative, so no cross-machine arithmetic.
MAX_CHARACT_SOLVE_FRACTION = 0.25
#: Sharded cold-load must beat JSONL by at least this at 10^5 rows.
MIN_STORE_COLD_SPEEDUP = 10.0
#: Sharded membership cost over a 100x row increase; linear would be
#: ~100x, binary search is flat.
MAX_STORE_MEMBERSHIP_GROWTH = 10.0
#: Warm persistent-pool dispatch vs the replicated pre-pool executor
#: path, measured within one run — machine-relative, so the floor holds
#: on any host.  Mirrors MIN_SPEEDUP in the benchmark itself.
MIN_DISPATCH_SPEEDUP = 3.0


def _check_obs(current_path: str, max_ns: float) -> int:
    path = Path(current_path)
    if not path.exists():
        print(f"obs overhead: {path} not present, skipping")
        return 0
    current = json.loads(path.read_text())
    added = current["disabled_added_ns_per_span"]
    print(
        f"obs overhead: disabled span adds {added:,.0f}ns "
        f"(limit {max_ns:,.0f}ns)"
    )
    if added > max_ns:
        print(
            f"FAIL: disabled observability span costs {added:,.0f}ns; "
            "the no-op fast path regressed",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_generation(
    current_path: str, baseline_path: str, max_regression: float
) -> int:
    path = Path(current_path)
    if not path.exists():
        print(f"generation throughput: {path} not present, skipping")
        return 0
    current = json.loads(path.read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    now = current["variants_per_second"]
    then = baseline["variants_per_second"]
    ratio = then / now if now else float("inf")
    print(
        f"generation: {now:,.0f} variants/s (baseline {then:,.0f}); "
        f"slowdown {ratio:.2f}x (limit {max_regression:.1f}x)"
    )
    if ratio > max_regression:
        print(
            f"FAIL: generation dispatch throughput regressed {ratio:.2f}x "
            "vs the committed baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_stopping(current_path: str, min_savings: float) -> int:
    path = Path(current_path)
    if not path.exists():
        print(f"stopping savings: {path} not present, skipping")
        return 0
    current = json.loads(path.read_text())
    stable = current["stable_savings"]
    noisy_spent = current["noisy_mean_spent"]
    stable_spent = current["stable_mean_spent"]
    print(
        f"stopping: stable half saves {stable:.1f}x "
        f"(floor {min_savings:.1f}x); spent {stable_spent:.1f} stable vs "
        f"{noisy_spent:.1f} noisy"
    )
    failed = 0
    if stable < min_savings:
        print(
            f"FAIL: adaptive stopping saves only {stable:.1f}x on the "
            "stable half; the stopping rule regressed",
            file=sys.stderr,
        )
        failed = 1
    if noisy_spent <= stable_spent:
        print(
            "FAIL: noisy configurations no longer receive more "
            "experiments than stable ones",
            file=sys.stderr,
        )
        failed = 1
    return failed


def _check_characterize(
    current_path: str,
    baseline_path: str,
    max_regression: float,
    max_solve_fraction: float,
) -> int:
    path = Path(current_path)
    if not path.exists():
        print(f"characterize: {path} not present, skipping")
        return 0
    current = json.loads(path.read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    now = current["probe_jobs_per_second"]
    then = baseline["probe_jobs_per_second"]
    ratio = then / now if now else float("inf")
    solve_fraction = current["solve_fraction"]
    print(
        f"characterize: {now:,.0f} probe jobs/s (baseline {then:,.0f}); "
        f"slowdown {ratio:.2f}x (limit {max_regression:.1f}x); solve is "
        f"{solve_fraction:.3f} of campaign time "
        f"(limit {max_solve_fraction:.2f})"
    )
    failed = 0
    if ratio > max_regression:
        print(
            f"FAIL: probe-campaign throughput regressed {ratio:.2f}x "
            "vs the committed baseline",
            file=sys.stderr,
        )
        failed = 1
    if solve_fraction > max_solve_fraction:
        print(
            f"FAIL: table solve takes {solve_fraction:.2f} of the probe "
            "campaign's wall time; the solver stopped being cheap",
            file=sys.stderr,
        )
        failed = 1
    return failed


def _check_store(
    current_path: str, min_speedup: float, max_growth: float
) -> int:
    path = Path(current_path)
    if not path.exists():
        print(f"store scale: {path} not present, skipping")
        return 0
    current = json.loads(path.read_text())
    speedup = current["cold_load_speedup_1e5"]
    growth = current["membership_growth"]
    linear = current["membership_growth_linear"]
    print(
        f"store: cold-load {speedup:.1f}x faster than JSONL at 1e5 rows "
        f"(floor {min_speedup:.0f}x); membership grew {growth:.1f}x over "
        f"{linear:.0f}x more rows (limit {max_growth:.0f}x)"
    )
    failed = 0
    if speedup < min_speedup:
        print(
            f"FAIL: sharded cold-load only {speedup:.1f}x faster than "
            "JSONL; the index read path regressed",
            file=sys.stderr,
        )
        failed = 1
    if growth > max_growth:
        print(
            f"FAIL: sharded membership cost grew {growth:.1f}x over a "
            f"{linear:.0f}x row increase; lookups are no longer sublinear",
            file=sys.stderr,
        )
        failed = 1
    return failed


def _check_dispatch(
    current_path: str,
    baseline_path: str,
    min_speedup: float,
    max_regression: float,
) -> int:
    path = Path(current_path)
    if not path.exists():
        print(f"dispatch: {path} not present, skipping")
        return 0
    current = json.loads(path.read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    speedup = current["speedup_vs_prepr"]
    warm_s = current["spawn"]["warm_best_s"]
    fresh_s = current["spawn"]["fresh_s"]
    now = current["warm"]["jobs_per_s"]
    then = baseline["warm"]["jobs_per_s"]
    ratio = then / now if now else float("inf")
    print(
        f"dispatch: warm pool {speedup:.1f}x the pre-pool executor path "
        f"(floor {min_speedup:.0f}x); warm {warm_s:.3f}s vs fresh "
        f"{fresh_s:.3f}s; {now:,.0f} jobs/s (baseline {then:,.0f}); "
        f"slowdown {ratio:.2f}x (limit {max_regression:.1f}x)"
    )
    failed = 0
    if speedup < min_speedup:
        print(
            f"FAIL: warm dispatch only {speedup:.1f}x the pre-pool "
            "executor path; the persistent worker runtime stopped paying",
            file=sys.stderr,
        )
        failed = 1
    if warm_s >= fresh_s:
        print(
            f"FAIL: warm campaign ({warm_s:.3f}s) no faster than the "
            f"fresh one ({fresh_s:.3f}s); pool reuse broke",
            file=sys.stderr,
        )
        failed = 1
    if ratio > max_regression:
        print(
            f"FAIL: warm dispatch throughput regressed {ratio:.2f}x "
            "vs the committed baseline",
            file=sys.stderr,
        )
        failed = 1
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", default="BENCH_measurement.json")
    parser.add_argument(
        "--baseline", default="benchmarks/BENCH_measurement_baseline.json"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=MAX_REGRESSION,
        help="fail when baseline/current throughput exceeds this (default: 2.0)",
    )
    parser.add_argument(
        "--obs-current",
        default="BENCH_obs.json",
        help="obs-overhead result to gate (skipped when absent)",
    )
    parser.add_argument(
        "--obs-max-ns",
        type=float,
        default=MAX_OBS_DISABLED_NS,
        help="fail when a disabled span adds more ns than this "
        f"(default: {MAX_OBS_DISABLED_NS:.0f})",
    )
    parser.add_argument(
        "--gen-current",
        default="BENCH_generation.json",
        help="generation-throughput result to gate (skipped when absent)",
    )
    parser.add_argument(
        "--gen-baseline",
        default="benchmarks/BENCH_generation_baseline.json",
        help="committed generation-throughput baseline",
    )
    parser.add_argument(
        "--stopping-current",
        default="BENCH_stopping.json",
        help="stopping-savings result to gate (skipped when absent)",
    )
    parser.add_argument(
        "--stopping-min-savings",
        type=float,
        default=MIN_STOPPING_SAVINGS,
        help="fail when the stable half saves less than this "
        f"(default: {MIN_STOPPING_SAVINGS:.1f})",
    )
    parser.add_argument(
        "--charact-current",
        default="BENCH_characterize.json",
        help="characterization result to gate (skipped when absent)",
    )
    parser.add_argument(
        "--charact-baseline",
        default="benchmarks/BENCH_characterize_baseline.json",
        help="committed characterization baseline",
    )
    parser.add_argument(
        "--charact-max-solve-fraction",
        type=float,
        default=MAX_CHARACT_SOLVE_FRACTION,
        help="fail when table solving exceeds this fraction of probe-"
        f"campaign wall time (default: {MAX_CHARACT_SOLVE_FRACTION:.2f})",
    )
    parser.add_argument(
        "--store-current",
        default="BENCH_store.json",
        help="store-scale result to gate (skipped when absent)",
    )
    parser.add_argument(
        "--store-min-speedup",
        type=float,
        default=MIN_STORE_COLD_SPEEDUP,
        help="fail when sharded cold-load beats JSONL by less than this "
        f"at 1e5 rows (default: {MIN_STORE_COLD_SPEEDUP:.0f})",
    )
    parser.add_argument(
        "--store-max-growth",
        type=float,
        default=MAX_STORE_MEMBERSHIP_GROWTH,
        help="fail when sharded membership cost grows more than this over "
        f"a 100x row increase (default: {MAX_STORE_MEMBERSHIP_GROWTH:.0f})",
    )
    parser.add_argument(
        "--dispatch-current",
        default="BENCH_dispatch.json",
        help="dispatch-throughput result to gate (skipped when absent)",
    )
    parser.add_argument(
        "--dispatch-baseline",
        default="benchmarks/BENCH_dispatch_baseline.json",
        help="committed dispatch-throughput baseline",
    )
    parser.add_argument(
        "--dispatch-min-speedup",
        type=float,
        default=MIN_DISPATCH_SPEEDUP,
        help="fail when warm dispatch beats the pre-pool executor path "
        f"by less than this (default: {MIN_DISPATCH_SPEEDUP:.0f})",
    )
    args = parser.parse_args(argv)

    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    now = current["configs_per_second"]
    then = baseline["configs_per_second"]
    ratio = then / now if now else float("inf")
    print(
        f"throughput: {now:,.0f} configs/s (baseline {then:,.0f}); "
        f"slowdown {ratio:.2f}x (limit {args.max_regression:.1f}x)"
    )
    failed = 0
    if ratio > args.max_regression:
        print(
            f"FAIL: measurement throughput regressed {ratio:.2f}x "
            f"vs the committed baseline",
            file=sys.stderr,
        )
        failed = 1
    failed |= _check_obs(args.obs_current, args.obs_max_ns)
    failed |= _check_generation(
        args.gen_current, args.gen_baseline, args.max_regression
    )
    failed |= _check_stopping(
        args.stopping_current, args.stopping_min_savings
    )
    failed |= _check_characterize(
        args.charact_current,
        args.charact_baseline,
        args.max_regression,
        args.charact_max_solve_fraction,
    )
    failed |= _check_store(
        args.store_current, args.store_min_speedup, args.store_max_growth
    )
    failed |= _check_dispatch(
        args.dispatch_current,
        args.dispatch_baseline,
        args.dispatch_min_speedup,
        args.max_regression,
    )
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
