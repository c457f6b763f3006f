"""Hierarchical tracing spans: where a campaign's wall-clock went.

A :class:`Tracer` records :class:`Span` intervals — named, attributed,
parent/child nested — on a monotonic clock (``time.perf_counter``), with
one wall-clock anchor per tracer so consumers can place the whole trace
in calendar time.  Nesting is per thread: each thread keeps its own span
stack, so a span opened on another thread becomes a root there instead
of corrupting the main thread's hierarchy.

Spans are context managers::

    with tracer.span("pass:unroll", variants=12) as sp:
        ...
        sp.set(variants_out=96)

and export as JSON lines (:meth:`Tracer.write_jsonl`), one span per
line, children guaranteed to lie inside their parent's interval — the
property the integration tests assert.  See ``docs/OBSERVABILITY.md``
for the schema.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path


class Span:
    """One timed interval; records itself on the tracer when it closes."""

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "start_s",
        "duration_s",
        "attrs",
        "metric",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: int | None,
        attrs: dict[str, object],
        metric: str | None = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id = parent_id
        self.attrs = attrs
        self.metric = metric
        self.start_s = 0.0
        self.duration_s = 0.0
        self._finished = False

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_s = time.perf_counter() - self.tracer.epoch_s
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = (time.perf_counter() - self.tracer.epoch_s) - self.start_s
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        self._finished = True
        self.tracer._record(self)
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._finished else "open"
        return f"<Span {self.name!r} #{self.span_id} {state}>"


class Tracer:
    """Collects spans from any thread; thread-local nesting stacks."""

    def __init__(self) -> None:
        #: Monotonic zero point: every span's ``start_s`` is relative to it.
        self.epoch_s = time.perf_counter()
        #: Wall-clock time (seconds since the Unix epoch) at ``epoch_s``,
        #: so a JSONL consumer can anchor the monotonic timeline.
        self.epoch_wall = time.time()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: list[dict] = []

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, *, metric: str | None = None, **attrs: object) -> Span:
        """Open a span; nests under the current thread's innermost span."""
        return Span(self, name, self._current_id(), attrs, metric)

    def add(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        **attrs: object,
    ) -> None:
        """Record an already-timed interval (no context manager).

        For intervals measured outside a ``with`` block — e.g. a chunk's
        dispatch-to-completion time observed from the scheduler's event
        loop.  ``start_s`` is absolute ``time.perf_counter()`` time; it
        is rebased onto the tracer's epoch.  The span parents under the
        calling thread's current span.
        """
        span = Span(self, name, self._current_id(), attrs)
        span.start_s = start_s - self.epoch_s
        span.duration_s = duration_s
        span._finished = True
        self._record(span)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - mismatched exit ordering
            stack.remove(span)

    def _record(self, span: Span) -> None:
        record = span.to_dict()
        with self._lock:
            self._records.append(record)
        if span.metric is not None:
            from repro import obs

            obs.observe(span.metric, span.duration_s * 1e3)

    # -- export --------------------------------------------------------------

    @property
    def records(self) -> list[dict]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._records)

    def write_jsonl(self, path: str | Path) -> Path:
        """One JSON object per line: a meta header, then one span each."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "meta": {
                "format": "repro-trace-v1",
                "epoch_wall": self.epoch_wall,
                "spans": len(self._records),
            }
        }
        with path.open("w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return path


def load_trace(path: str | Path) -> list[dict]:
    """Read a trace JSONL file back into span dicts (header dropped)."""
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record and "name" not in record:
                continue
            records.append(record)
    return records


class _NoopSpan:
    """The disabled fast path: every operation is a constant no-op.

    A single shared instance stands in for every span while observability
    is off, so ``with obs.span(...)`` costs one module-global check plus
    two trivial method calls — verified to sit within noise of no
    instrumentation by ``benchmarks/test_obs_overhead.py``.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()
