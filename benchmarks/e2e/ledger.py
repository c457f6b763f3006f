"""Per-layer ledger: where the wall clock of one traced repetition went.

The traced repetition writes the program's own spans and counters
(``repro.obs``) plus the benchmark's spans around the public calls it
makes.  Every span's *self time* is its duration minus the union of its
children's intervals: the union, not the sum, because ``engine.chunk``
spans of a two-worker pool overlap.  Self time is then summed per layer;
the root's self time plus that of any span no layer claims is the
unattributed remainder.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Span name (or prefix ending in ``*``) -> the layer metric its self
#: time adds to.  Layers are named for the ``src/repro`` modules.
SPAN_LAYERS = {
    "experiment:*": "analysis.self_s",
    "bench.generate": "creator.self_s",
    "creator.*": "creator.self_s",
    "pass:*": "creator.self_s",
    "gen.worker": "creator.self_s",
    # run_campaign's own time outside engine.campaign is opening the stores.
    "bench.run_campaign": "engine.store.open_s",
    "engine.expand": "engine.expand.self_s",
    "engine.cache.scan": "engine.store.scan_s",
    "engine.cache.put": "engine.store.put_s",
    "store.*": "engine.store.put_s",
    "engine.campaign": "engine.dispatch.self_s",
    "engine.dispatch": "engine.dispatch.self_s",
    "engine.job": "engine.dispatch.self_s",
    "bench.unpack": "engine.dispatch.self_s",
    "engine.chunk": "engine.pool.worker_busy_s",
    "launcher.run_batch": "launcher.measure_s",
    "launcher.measure": "launcher.measure_s",
    "launcher.normalize": "machine.model_s",
    "bench.model": "machine.model_s",
    "bench.noise": "machine.noise_s",
    "bench.run_characterization": "characterize.plan_s",
    "bench.solve_table": "characterize.solve_s",
    "bench.verify_table": "characterize.verify_s",
    "bench.write_csv": "output.csv_s",
}

ROOT_SPAN = "bench.body"

#: Every per-layer metric as (name, unit, which direction is better).
#: Which end-to-end metric each should move, on which workload, is
#: tabled in README.md.
LAYER_METRICS = (
    ("creator.self_s", "s", "lower"),
    ("creator.variants", "count", "lower"),
    ("engine.expand.self_s", "s", "lower"),
    ("engine.expand.us_per_job", "us/job", "lower"),
    ("engine.gencache.hit_ratio", "ratio", "higher"),
    ("engine.store.open_s", "s", "lower"),
    ("engine.store.scan_s", "s", "lower"),
    ("engine.store.get_us", "us", "lower"),
    ("engine.store.hit_ratio", "ratio", "higher"),
    ("engine.store.put_s", "s", "lower"),
    ("engine.store.put_us_per_row", "us/row", "lower"),
    ("engine.store.seals", "count", "lower"),
    ("engine.dispatch.self_s", "s", "lower"),
    ("engine.pool.worker_busy_s", "s", "lower"),
    ("engine.pool.utilization", "ratio", "higher"),
    ("engine.pool.chunks", "count", "lower"),
    ("engine.pool.jobs_per_chunk", "jobs/chunk", "higher"),
    ("engine.job_ms.p50", "ms", "lower"),
    ("engine.job_ms.p99", "ms", "lower"),
    ("engine.job_ms.n", "count", "higher"),
    ("engine.job.retries", "count", "lower"),
    ("engine.job.failed", "count", "lower"),
    ("launcher.measure_s", "s", "lower"),
    ("launcher.stopping.experiments_mean", "count", "lower"),
    ("launcher.stopping.converged_ratio", "ratio", "higher"),
    ("machine.model_s", "s", "lower"),
    ("machine.model_evals", "count", "lower"),
    ("machine.model_reuse_ratio", "ratio", "higher"),
    ("machine.noise_s", "s", "lower"),
    ("characterize.plan_s", "s", "lower"),
    ("characterize.solve_s", "s", "lower"),
    ("characterize.verify_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("output.csv_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.pool_spawn_s", "s", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def layer_of(name: str) -> str | None:
    """The layer metric a span's self time belongs to (``None``: none)."""
    layer = SPAN_LAYERS.get(name)
    if layer is not None:
        return layer
    for pattern, layer in SPAN_LAYERS.items():
        if pattern.endswith("*") and name.startswith(pattern[:-1]):
            return layer
    return None


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so a child
    recorded slightly outside its parent cannot make self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id") is not None:
            start = span["start_s"]
            children[span["parent_id"]].append((start, start + span["duration_s"]))
    result = {}
    for span in spans:
        start = span["start_s"]
        end = start + span["duration_s"]
        covered = [
            (max(a, start), min(b, end))
            for a, b in children.get(span["span_id"], ())
            if min(b, end) > max(a, start)
        ]
        result[span["span_id"]] = span["duration_s"] - union_length(covered)
    return result


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolated; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(
    spans: list[dict],
    metrics: dict,
    *,
    worker_job_ms: list[float] = (),
    untraced_body_s: float | None = None,
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (``setup.*`` excluded).

    ``metrics`` is the ``repro.obs`` registry snapshot; ``worker_job_ms``
    the per-job durations pool workers reported; ``untraced_body_s`` the
    median body time of the untraced repetitions, the base of
    ``trace.overhead_frac``.
    """
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    own = self_times(spans)
    out = {name: 0.0 for name, _, _ in LAYER_METRICS if not name.startswith("setup.")}

    root_s = unattributed = 0.0
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["name"] == ROOT_SPAN:
            root_s += span["duration_s"]
            unattributed += own[span["span_id"]]
            continue
        layer = layer_of(span["name"])
        if layer is None:
            unattributed += own[span["span_id"]]
        else:
            out[layer] += own[span["span_id"]]

    jobs = sum(s["attrs"].get("jobs", 0) for s in by_name["engine.campaign"])
    hits = counters.get("engine.cache.hits", 0)
    misses = counters.get("engine.cache.misses", 0)
    gen_hits = counters.get("gencache.hit", 0)
    chunks = by_name["engine.chunk"]
    pool_wall = sum(
        s["duration_s"] * s["attrs"].get("workers", 1)
        for s in by_name["engine.dispatch"]
        if s["attrs"].get("mode") == "pool"
    )
    inline_job_ms = [s["duration_s"] * 1e3 for s in by_name["engine.job"]]
    job_ms = inline_job_ms + list(worker_job_ms)
    converged = counters.get("stopping.converged", 0)
    experiments = histograms.get("stopping.experiments", {})
    evals = len(by_name["bench.model"])

    out.update(
        {
            "creator.variants": counters.get("creator.variants.generated", 0),
            "engine.expand.us_per_job": _ratio(out["engine.expand.self_s"], jobs) * 1e6,
            "engine.gencache.hit_ratio": _ratio(
                gen_hits, gen_hits + counters.get("gencache.miss", 0)
            ),
            "engine.store.get_us": _ratio(
                out["engine.store.scan_s"], hits + misses
            ) * 1e6,
            "engine.store.hit_ratio": _ratio(hits, hits + misses),
            "engine.store.put_us_per_row": _ratio(
                out["engine.store.put_s"], counters.get("engine.cache.puts", 0)
            ) * 1e6,
            "engine.store.seals": counters.get("store.seal", 0),
            "engine.pool.utilization": _ratio(
                out["engine.pool.worker_busy_s"], pool_wall
            ),
            "engine.pool.chunks": len(chunks),
            "engine.pool.jobs_per_chunk": _ratio(
                sum(s["attrs"].get("jobs", 0) for s in chunks), len(chunks)
            ),
            "engine.job_ms.p50": percentile(job_ms, 50),
            "engine.job_ms.p99": percentile(job_ms, 99),
            "engine.job_ms.n": len(job_ms),
            "engine.job.retries": counters.get("engine.job.retries", 0),
            "engine.job.failed": counters.get("engine.job.quarantined", 0),
            "launcher.stopping.experiments_mean": _ratio(
                experiments.get("total", 0.0), experiments.get("count", 0)
            ),
            "launcher.stopping.converged_ratio": _ratio(
                converged, converged + counters.get("stopping.capped", 0)
            ),
            "machine.model_evals": evals,
            # Only inline jobs are visible: pool workers' model calls die
            # with the worker.
            "machine.model_reuse_ratio": (
                1.0 - _ratio(evals, len(inline_job_ms)) if inline_job_ms else 0.0
            ),
            "trace.unattributed_frac": _ratio(unattributed, root_s),
            "trace.overhead_frac": (
                root_s / untraced_body_s - 1.0 if untraced_body_s else 0.0
            ),
        }
    )
    return out
