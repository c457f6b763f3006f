"""Accounting of the end-to-end benchmark: self time, summaries, verdicts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import END_TO_END, assess, headline, relative_spread, summary, verdict
from ledger import LAYER_METRICS, ledger, self_times, union_length
from workloads import WORKLOADS, sha256


def span(span_id, name, start, duration, parent=None, **attrs):
    return {
        "span_id": span_id,
        "name": name,
        "start_s": start,
        "duration_s": duration,
        "parent_id": parent,
        "attrs": attrs,
    }


def test_union_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (2.5, 2.8)]) == 3.0
    assert union_length([(5, 6), (0, 1), (0.5, 5.5)]) == 6.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span(1, "bench.body", 0.0, 10.0),
        span(2, "engine.chunk", 1.0, 3.0, parent=1),  # [1, 4]
        span(3, "engine.chunk", 3.0, 3.0, parent=1),  # [3, 6], overlaps
        span(4, "bench.unpack", 1.5, 0.5, parent=2),  # nested in the first
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # union, not 3 + 3
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_self_time_clips_children_to_their_parent():
    spans = [
        span(1, "engine.dispatch", 1.0, 2.0),
        span(2, "engine.job", 0.0, 2.5, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(0.5)


def test_ledger_attributes_layers_and_counts_unknown_spans_as_unattributed():
    spans = [
        span(1, "bench.body", 0.0, 10.0),
        span(2, "bench.run_campaign", 0.0, 8.0, parent=1),
        span(3, "engine.campaign", 0.5, 7.0, parent=2, jobs=4),
        span(4, "engine.expand", 0.5, 1.0, parent=3),
        span(5, "engine.dispatch", 1.5, 6.0, parent=3, mode="pool", workers=2),
        span(6, "engine.chunk", 1.5, 4.0, parent=5, jobs=2),
        span(7, "engine.chunk", 2.0, 5.0, parent=5, jobs=2),
        span(8, "something.new", 8.0, 1.0, parent=1),
    ]
    metrics = {"counters": {"engine.cache.misses": 4, "engine.cache.hits": 0}}
    out = ledger(
        spans, metrics, worker_job_ms=[1.0, 2.0, 3.0, 4.0], untraced_body_s=8.0
    )
    assert out["engine.store.open_s"] == pytest.approx(1.0)
    assert out["engine.expand.self_s"] == pytest.approx(1.0)
    assert out["engine.expand.us_per_job"] == pytest.approx(0.25e6)
    # campaign self 0 (its children cover it); dispatch self 6 - 5.5
    assert out["engine.dispatch.self_s"] == pytest.approx(0.5)
    assert out["engine.pool.worker_busy_s"] == pytest.approx(9.0)
    assert out["engine.pool.utilization"] == pytest.approx(9.0 / 12.0)
    assert out["engine.pool.chunks"] == 2
    assert out["engine.pool.jobs_per_chunk"] == 2.0
    assert out["engine.job_ms.n"] == 4
    assert out["engine.job_ms.p50"] == pytest.approx(2.5)
    # root self 1 s + the unknown span's 1 s
    assert out["trace.unattributed_frac"] == pytest.approx(0.2)
    assert out["trace.overhead_frac"] == pytest.approx(0.25)
    assert set(out) == {n for n, *_ in LAYER_METRICS if not n.startswith("setup.")}


def test_summary_reports_median_quartiles_and_n():
    s = summary([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (1.5, 3.0, 4.5, 5)
    assert summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    assert relative_spread([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert headline([5.0, 1.0, 4.0], "higher", "best") == 5.0
    assert headline([5.0, 1.0, 4.0], "lower", "best") == 1.0
    assert headline([5.0, 1.0, 4.0], "lower", "median") == 4.0


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [120.0, 121.0, 119.0, 120.5, 119.5]
    slower = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert verdict(parent, faster, "higher", 0.1) == "better"
    assert verdict(parent, slower, "higher", 0.1) == "worse"
    same = [100.2, 100.9, 99.2, 100.4, 99.7]
    assert verdict(parent, same, "higher", 0.1) == "unchanged"
    assert verdict(parent, slower, "lower", 0.1) == "better"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert verdict(parent, noisy, "higher", 0.1) == "unresolved"
    # A noisy change that beats every parent run is still a win.
    assert verdict(parent, [102.0, 150.0, 200.0], "higher", 0.1) == "better"
    # Best-of compares the fastest runs: a slow straggler does not count.
    assert verdict(parent, [100.9, 101.0, 60.0], "higher", 0.5, "best") == "unchanged"
    assert verdict(parent, [90.0, 91.0, 89.0], "lower", 0.1, "best") == "better"


def report(digest, jobs=10, quarantined=0, **checks):
    return {
        "digest": digest, "jobs": jobs, "quarantined": quarantined, "checks": checks
    }


def test_perturbed_output_counts_every_job_of_its_repetition_as_failed():
    csv = b"kernel,label,cycles_per_iteration\nk_v0000,,1.25\n"
    perturbed = csv.replace(b"1.25", b"1.26")
    good, bad = sha256(csv), sha256(perturbed)
    checks, attempted, failed = assess(
        [report(good), report(bad), report(good, quarantined=1)], good
    )
    assert not checks["outputs_identical"]
    assert (attempted, failed) == (30, 11)
    # Against a reference the run does not match, nothing counts as done.
    checks, attempted, failed = assess([report(good)], good, reference=bad)
    assert not checks["matches_reference"]
    assert failed == attempted == 10
    # A failed program-side check fails the repetition too.
    _, _, failed = assess([report(good, pool_used=False)], good)
    assert failed == 10


def test_benchmark_json_matches_the_code():
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        name: (unit, better) for name, (unit, better, _) in END_TO_END.items()
    }
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        LAYER_METRICS
    )
