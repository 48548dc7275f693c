"""Hierarchical tracing spans with contextvar parent propagation.

A *span* is one timed region of the pipeline — a composition step, a
bisimulation minimisation, a simulation batch, a sweep point.  Spans nest:
the contextvar-tracked current span becomes the parent of any span opened
inside it, so one run produces a tree (``compose.run`` → ``compose.step`` →
``reduce.strong`` → ``lumping.refine`` …) that the report CLI can roll up
by name.

The instrumentation contract is deliberately one-sided:

* **No ambient telemetry, no cost.**  The module-level :func:`span` helper
  returns a shared null context when no :class:`Telemetry` session is
  active, and the null span swallows :meth:`Span.set` calls — so the
  instrumented hot paths stay observational and effectively free when
  telemetry is off (the tier-1 suite runs with it off).
* **Attributes are data, not messages.**  ``span.set(states_before=...,
  cache_hit=True)`` records machine-readable facts; rendering is the report
  CLI's job.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .metrics import MetricsRegistry
from .sink import MemorySink, RunManifest

#: The active telemetry session of this context (None = telemetry off).
_ACTIVE: ContextVar["Telemetry | None"] = ContextVar("repro_telemetry", default=None)
#: Span id of the innermost open span (the parent of the next span).
_CURRENT_SPAN: ContextVar[str | None] = ContextVar("repro_telemetry_span", default=None)

#: Per-process span id sequence; combined with the pid so ids from
#: different processes never collide.
_SPAN_IDS = itertools.count(1)


@dataclass
class Span:
    """One timed, attributed region of the pipeline."""

    name: str
    span_id: str
    parent_id: str | None
    trace_id: str
    start_unix: float
    duration_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    pid: int = 0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def to_event(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "pid": self.pid,
        }


class _NullSpan:
    """Swallows every interaction; returned when telemetry is inactive."""

    __slots__ = ()
    span_id = None
    name = ""

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, reentrant no-op context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class Telemetry:
    """One observability session: a sink, a metrics registry, one trace.

    Parameters
    ----------
    sink:
        Event sink (:class:`~repro.telemetry.sink.JsonlSink` for durable
        runs, :class:`~repro.telemetry.sink.MemorySink` for tests).
        Defaults to a fresh memory sink.
    manifest:
        Optional :class:`~repro.telemetry.sink.RunManifest`; emitted as the
        stream's first event, and its ``run_id`` becomes the trace id of
        every span.
    """

    def __init__(
        self,
        sink=None,
        *,
        manifest: RunManifest | None = None,
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.manifest = manifest
        self.run_id = (
            manifest.run_id
            if manifest is not None
            else f"trace-{os.getpid():x}-{time.time_ns():x}"
        )
        self.metrics = MetricsRegistry()
        self._closed = False
        if manifest is not None:
            self.sink.emit(manifest.to_event())

    # ------------------------------------------------------------------ #
    # context activation
    # ------------------------------------------------------------------ #
    @contextmanager
    def activate(self):
        """Install this session as the ambient telemetry of the context."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of the current span; emitted on exit."""
        record = Span(
            name=name,
            span_id=f"{os.getpid():x}-{next(_SPAN_IDS):x}",
            parent_id=_CURRENT_SPAN.get(),
            trace_id=self.run_id,
            start_unix=time.time(),
            attrs=dict(attrs),
            pid=os.getpid(),
        )
        token = _CURRENT_SPAN.set(record.span_id)
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.duration_s = time.perf_counter() - started
            _CURRENT_SPAN.reset(token)
            self.sink.emit(record.to_event())

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def export_events(self) -> list[dict]:
        """The buffered events of a memory-sink session (empty otherwise)."""
        if isinstance(self.sink, MemorySink):
            return list(self.sink.events)
        return []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def flush_metrics(self) -> None:
        """Emit the current metrics snapshot as a ``metrics`` event."""
        snapshot = self.metrics.snapshot()
        if snapshot:
            self.sink.emit(
                {"type": "metrics", "trace_id": self.run_id, "metrics": snapshot}
            )

    def close(self) -> None:
        """Flush the metrics snapshot and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.flush_metrics()
        self.sink.close()


# ---------------------------------------------------------------------- #
# ambient helpers (the instrumentation surface of the rest of the library)
# ---------------------------------------------------------------------- #
def current_telemetry() -> Telemetry | None:
    """The ambient telemetry session, or None when telemetry is off."""
    return _ACTIVE.get()


def span(name: str, **attrs):
    """Open a span on the ambient session; a free no-op when there is none."""
    telemetry = _ACTIVE.get()
    if telemetry is None:
        return _NULL_CONTEXT
    return telemetry.span(name, **attrs)


def incr(name: str, amount: float = 1.0) -> None:
    """Increment a counter on the ambient session's registry (no-op if off)."""
    telemetry = _ACTIVE.get()
    if telemetry is not None:
        telemetry.metrics.counter(name).inc(amount)


def gauge_max(name: str, value: float) -> None:
    """Ratchet a high-water gauge on the ambient registry (no-op if off)."""
    telemetry = _ACTIVE.get()
    if telemetry is not None:
        telemetry.metrics.gauge(name).update_max(value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the ambient registry (no-op if off)."""
    telemetry = _ACTIVE.get()
    if telemetry is not None:
        telemetry.metrics.histogram(name).observe(value)


__all__ = [
    "NULL_SPAN",
    "Span",
    "Telemetry",
    "current_telemetry",
    "gauge_max",
    "incr",
    "observe",
    "span",
]
