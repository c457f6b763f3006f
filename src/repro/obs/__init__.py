"""Observability: tracing spans + metrics for the whole pipeline.

The paper's thesis is measurement you can trust; this package applies it
to the tools themselves.  When enabled, the creator's pass pipeline, the
campaign engine's scheduler, and the launcher's measurement core emit
hierarchical :mod:`~repro.obs.trace` spans and
:mod:`~repro.obs.metrics` instruments, exportable as JSONL/JSON
(``--trace`` / ``--metrics-out`` on both CLIs) and summarized by
``python -m repro.obs.report``.

**Off by default, and cheap when off.**  Every helper here starts with
one module-global check; a disabled ``span()`` returns a shared no-op
singleton.  That is not free: ``benchmarks/test_obs_overhead.py``
measures ~380 ns added per disabled span (443.7 ns against 62.6 ns for
the bare loop body in ``benchmarks/BENCH_obs_baseline.json``), so
instrumentation sites belong around work that costs microseconds, not
inside the tightest loops.

Usage::

    from repro import obs

    session = obs.enable()
    with obs.span("engine.dispatch", chunks=4):
        obs.count("engine.cache.hits")
        obs.observe("engine.job.duration_ms", 12.5)
    session.tracer.write_jsonl("trace.jsonl")
    session.metrics.write_json("metrics.json")
    obs.disable()

The span/metric naming conventions and export schemas live in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DURATION_MS_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_metrics,
)
from repro.obs.trace import NOOP_SPAN, Span, Tracer, load_trace


class ObsSession:
    """One enabled observability window: a tracer plus a registry."""

    __slots__ = ("tracer", "metrics")

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


#: The active session, or ``None`` (the default — observability is off).
#: A single global keeps the disabled check to one attribute lookup.
_SESSION: ObsSession | None = None


def enable() -> ObsSession:
    """Turn observability on; returns the (new or existing) session.

    Idempotent: enabling twice keeps the first session so nested users
    (a CLI enabling around an already-instrumented library call) share
    one trace and one registry.
    """
    global _SESSION
    if _SESSION is None:
        _SESSION = ObsSession()
    return _SESSION


def disable() -> None:
    """Turn observability off and drop the session."""
    global _SESSION
    _SESSION = None


def is_enabled() -> bool:
    return _SESSION is not None


def session() -> ObsSession | None:
    """The active session (``None`` when disabled)."""
    return _SESSION


# -- fast-path emission helpers ---------------------------------------------
#
# Each helper is safe to call unconditionally from hot code: disabled,
# it is one global read and a branch.


def span(name: str, *, metric: str | None = None, **attrs: object):
    """Open a span (context manager); a shared no-op when disabled.

    ``metric`` optionally names a duration histogram that receives the
    span's elapsed milliseconds when it closes.
    """
    s = _SESSION
    if s is None:
        return NOOP_SPAN
    return s.tracer.span(name, metric=metric, **attrs)


def add_span(name: str, start_s: float, duration_s: float, **attrs: object) -> None:
    """Record a pre-timed interval (see :meth:`Tracer.add`)."""
    s = _SESSION
    if s is not None:
        s.tracer.add(name, start_s, duration_s, **attrs)


def count(name: str, n: int = 1) -> None:
    """Increment a counter."""
    s = _SESSION
    if s is not None:
        s.metrics.counter(name).inc(n)


def gauge(name: str, value: float) -> None:
    """Set a gauge."""
    s = _SESSION
    if s is not None:
        s.metrics.gauge(name).set(value)


def observe(
    name: str, value: float, bounds: tuple[float, ...] = DURATION_MS_BUCKETS
) -> None:
    """Record one histogram observation (``bounds`` apply on first use)."""
    s = _SESSION
    if s is not None:
        s.metrics.histogram(name, bounds).observe(value)


def metrics_snapshot() -> dict:
    """The registry's snapshot, or ``{}`` when disabled."""
    s = _SESSION
    return s.metrics.snapshot() if s is not None else {}


__all__ = [
    "Counter",
    "DURATION_MS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ObsSession",
    "SIZE_BUCKETS",
    "Span",
    "Tracer",
    "add_span",
    "count",
    "disable",
    "enable",
    "gauge",
    "is_enabled",
    "load_metrics",
    "load_trace",
    "metrics_snapshot",
    "observe",
    "session",
    "span",
]
