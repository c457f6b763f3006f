"""Scale benchmark: sharded segment store vs a single-file JSONL cache.

Populates result caches of 10^4, 10^5, and 10^6 rows in both layouts
and times the two operations the sharded store exists to accelerate.
The JSONL reference is the layout earlier releases wrote, read through
the legacy loader (:func:`repro.engine.cache.load_legacy_jsonl`) that
migration uses:

- **cold-load**: constructing a cache over an existing directory.  The
  legacy loader parses and checksums every line; the sharded store
  reads ``index.bin`` (no JSON touched).
- **membership / resume-scan**: probing job IDs the way ``run_campaign``
  partitions a campaign on resume.  Membership is a dict hit for the
  loaded JSONL records and a binary search over the index for the
  sharded store, so the *scan* cost (open + probes from a cold process)
  is where the layouts diverge.

Asserts cold-load of the 10^5-row cache is >= 10x faster sharded, that
sharded membership cost grows sublinearly in row count, and that every
probed present job reads back identical measurements from both
layouts; writes ``BENCH_store.json``
(repo root) for the CI regression gate — see
``benchmarks/check_regression.py``.  Scales can be overridden for local
iteration with ``STORE_BENCH_SCALES=10000,100000``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.engine import ShardedResultCache
from repro.engine.cache import load_legacy_jsonl, record_check, valid_result_record

SCALES = tuple(
    int(s)
    for s in os.environ.get("STORE_BENCH_SCALES", "10000,100000,1000000").split(",")
)
PROBES = 2_000
MIN_COLD_SPEEDUP_1E5 = 10.0
#: Membership cost may grow this much over a 100x row-count increase
#: before it stops counting as sublinear (linear growth would be ~100x).
MAX_MEMBERSHIP_GROWTH = 10.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _record(i: int) -> dict:
    return {
        "job_id": f"{i:016x}",
        "kernel": f"kernel_{i % 64:04d}",
        "mode": "sequential",
        "measurements": [
            {
                "kernel_name": f"kernel_{i % 64:04d}",
                "label": "bench",
                "trip_count": 512,
                "repetitions": 32,
                "loop_iterations": 128,
                "elements_per_iteration": 4,
                "n_memory_instructions": 2,
                "experiment_tsc": [
                    float(1000 + (i * 7 + j * 13) % 97) for j in range(3)
                ],
                "freq_ghz": 2.66,
                "tsc_ghz": 2.66,
                "aggregator": "min",
            }
        ],
    }


def _populate_jsonl(directory: Path, rows: int) -> float:
    """Bulk-write a legacy cache file: one checksummed line per record."""
    directory.mkdir(parents=True)
    start = time.perf_counter()
    lines = []
    for i in range(rows):
        record = _record(i)
        record["check"] = record_check(record)
        lines.append(json.dumps(record))
    (directory / "results.jsonl").write_text("\n".join(lines) + "\n")
    return time.perf_counter() - start


def _populate_sharded(directory: Path, rows: int) -> float:
    start = time.perf_counter()
    cache = ShardedResultCache(directory)
    for i in range(rows):
        record = _record(i)
        cache.put(
            record["job_id"],
            record["measurements"],
            kernel=record["kernel"],
            mode=record["mode"],
        )
    cache.store.close()
    return time.perf_counter() - start


def _probe_ids(rows: int) -> list[str]:
    """Half present, half absent — a resume over a partially-run sweep."""
    step = max(1, rows // (PROBES // 2))
    present = [f"{i:016x}" for i in range(0, rows, step)][: PROBES // 2]
    absent = [f"missing{i:09x}" for i in range(PROBES - len(present))]
    return present + absent


def _load_jsonl(directory: Path) -> dict[str, dict]:
    return load_legacy_jsonl(
        directory / "results.jsonl", "job_id", valid_result_record
    )


def _time_backend(directory: Path, rows: int, opener) -> tuple[object, dict]:
    """The opened cache and its cold-load / membership timings."""
    start = time.perf_counter()
    cache = opener(directory)
    cold_load = time.perf_counter() - start

    ids = _probe_ids(rows)
    start = time.perf_counter()
    hits = sum(1 for job_id in ids if job_id in cache)
    membership = time.perf_counter() - start
    assert hits == PROBES // 2, f"expected half the probes present, got {hits}"

    return cache, {
        "rows": rows,
        "cold_load_seconds": round(cold_load, 5),
        "membership_seconds": round(membership, 5),
        "resume_scan_seconds": round(cold_load + membership, 5),
    }


def test_store_scale(tmp_path):
    report: dict = {
        "benchmark": "store_scale",
        "probes": PROBES,
        "scales": {},
    }
    sharded_membership: dict[int, float] = {}
    sharded_resume: dict[int, float] = {}
    cold_speedups: dict[int, float] = {}
    for rows in SCALES:
        jsonl_dir = tmp_path / f"jsonl-{rows}"
        sharded_dir = tmp_path / f"sharded-{rows}"
        jsonl_populate = _populate_jsonl(jsonl_dir, rows)
        sharded_populate = _populate_sharded(sharded_dir, rows)

        records, jsonl = _time_backend(jsonl_dir, rows, _load_jsonl)
        cache, sharded = _time_backend(sharded_dir, rows, ShardedResultCache)
        for job_id in _probe_ids(rows)[: PROBES // 2]:
            assert cache.get(job_id) == records[job_id]["measurements"], job_id
        jsonl["populate_seconds"] = round(jsonl_populate, 5)
        sharded["populate_seconds"] = round(sharded_populate, 5)

        speedup = jsonl["cold_load_seconds"] / max(
            sharded["cold_load_seconds"], 1e-9
        )
        cold_speedups[rows] = speedup
        sharded_membership[rows] = sharded["membership_seconds"]
        sharded_resume[rows] = sharded["resume_scan_seconds"]
        report["scales"][str(rows)] = {
            "jsonl": jsonl,
            "sharded": sharded,
            "cold_load_speedup": round(speedup, 2),
        }
        print(
            f"\n{rows:>9,} rows: cold {jsonl['cold_load_seconds']:.3f}s -> "
            f"{sharded['cold_load_seconds']:.3f}s ({speedup:.1f}x)  "
            f"membership {sharded['membership_seconds'] * 1e3:.1f}ms  "
            f"populate {jsonl['populate_seconds']:.3f}s -> "
            f"{sharded['populate_seconds']:.3f}s"
        )

    lo, hi = min(SCALES), max(SCALES)
    growth = sharded_membership[hi] / max(sharded_membership[lo], 1e-9)
    linear_growth = hi / lo
    report["cold_load_speedup_1e5"] = round(
        cold_speedups.get(100_000, cold_speedups[hi]), 2
    )
    report["membership_growth"] = round(growth, 2)
    report["membership_growth_linear"] = linear_growth
    report["resume_scan_growth"] = round(
        sharded_resume[hi] / max(sharded_resume[lo], 1e-9), 2
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"cold-load speedup @1e5: {report['cold_load_speedup_1e5']}x  "
        f"membership growth {lo:,}->{hi:,}: {growth:.1f}x "
        f"(linear would be {linear_growth}x)  -> {RESULT_PATH.name}"
    )

    if 100_000 in cold_speedups:
        assert cold_speedups[100_000] >= MIN_COLD_SPEEDUP_1E5, (
            f"sharded cold-load only {cold_speedups[100_000]:.1f}x faster at "
            f"1e5 rows (need >= {MIN_COLD_SPEEDUP_1E5}x); see {RESULT_PATH}"
        )
    assert growth <= MAX_MEMBERSHIP_GROWTH, (
        f"sharded membership cost grew {growth:.1f}x over a "
        f"{linear_growth}x row increase — no longer sublinear"
    )
