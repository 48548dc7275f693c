"""Unified telemetry layer: tracing spans, metrics, manifests, report CLI.

The pipeline's observability subsystem, dependency-free and strictly
observational — with no active session, every instrumentation site is a
near-zero-cost no-op and results are bit-identical to an uninstrumented
run.

* :mod:`repro.telemetry.trace` — hierarchical spans with contextvar parent
  propagation (:class:`Telemetry`, ambient :func:`span` / :func:`incr` /
  :func:`gauge_max` / :func:`observe`);
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms with
  JSON snapshots;
* :mod:`repro.telemetry.sink` — JSONL and in-memory sinks, the versioned
  event schema and the per-run :class:`RunManifest`;
* :mod:`repro.telemetry.report` — ``python -m repro.telemetry report``:
  phase timings, cache effectiveness, state-space growth over JSONL runs;
* :mod:`repro.telemetry.console` — shared ``--telemetry/--verbose/--quiet``
  CLI flags and the logging-based progress emitter.
"""

from .console import (
    add_observability_arguments,
    configure_logging,
    get_logger,
    telemetry_from_args,
    telemetry_session,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import load_run, load_runs, report_data, render_text
from .sink import SCHEMA_VERSION, JsonlSink, MemorySink, RunManifest, git_describe
from .trace import (
    NULL_SPAN,
    Span,
    Telemetry,
    current_telemetry,
    gauge_max,
    incr,
    observe,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunManifest",
    "SCHEMA_VERSION",
    "Span",
    "Telemetry",
    "add_observability_arguments",
    "configure_logging",
    "current_telemetry",
    "gauge_max",
    "get_logger",
    "git_describe",
    "incr",
    "load_run",
    "load_runs",
    "observe",
    "render_text",
    "report_data",
    "span",
    "telemetry_from_args",
    "telemetry_session",
]
