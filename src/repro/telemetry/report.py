"""Read telemetry JSONL runs and render phase/cache/state-space reports.

This is the first consumer of the telemetry stream — the feed the future
evaluation-as-a-service dashboard will read.  Given one or more JSONL files
written by :class:`~repro.telemetry.sink.JsonlSink` it renders, as text or
JSON:

* a **phase-timing breakdown** — spans rolled up by name (count, total,
  mean, max wall-clock and the share of the run's root-span time);
* a **cache-effectiveness table** — hits, misses, hit rate, stores, net
  saved seconds, and the misses re-gathered from a step skeleton plus the
  skeletons stored, from the ``cache.*`` counters (falling back to the
  ``compose.step`` span attributes when a run carries no metrics event);
* a **state-space growth summary** — per composition pipeline (one row per
  ``compose.run``), the model name, the step count, the peak pre-reduction
  intermediate size, the final CTMC size and the run's peak RSS;
* **throughput** — simulation/sweep rates when those subsystems ran.

Usage (also exposed as ``python -m repro.telemetry``)::

    python -m repro.telemetry report run.jsonl [more.jsonl ...] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import TelemetryError
from .sink import SCHEMA_VERSION


@dataclass
class RunData:
    """One loaded telemetry run (the parsed events of one JSONL file)."""

    path: str
    manifest: dict | None = None
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.manifest is not None:
            return str(self.manifest.get("run_id", self.path))
        return self.path

    @property
    def tool(self) -> str | None:
        return self.manifest.get("tool") if self.manifest else None

    def counters(self) -> dict:
        return self.metrics.get("counters", {})


def load_run(path: str | Path) -> RunData:
    """Parse one JSONL telemetry file into a :class:`RunData`."""
    path = Path(path)
    if not path.exists():
        raise TelemetryError(f"telemetry run {path} does not exist")
    run = RunData(path=str(path))
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise TelemetryError(
                    f"telemetry run {path}, line {number}: not valid JSON ({error})"
                ) from error
            if not isinstance(event, dict):
                raise TelemetryError(
                    f"telemetry run {path}, line {number}: events must be objects"
                )
            kind = event.get("type")
            if kind == "manifest":
                version = int(event.get("schema_version", 0))
                if version > SCHEMA_VERSION:
                    raise TelemetryError(
                        f"telemetry run {path} uses schema v{version}; this "
                        f"reader understands up to v{SCHEMA_VERSION}"
                    )
                run.manifest = event
            elif kind == "span":
                run.spans.append(event)
            elif kind == "metrics":
                # Later snapshots supersede earlier flushes of the same run.
                run.metrics = event.get("metrics", {})
    return run


def load_runs(paths) -> list[RunData]:
    return [load_run(path) for path in paths]


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def phase_rows(run: RunData) -> list[dict]:
    """Spans rolled up by name, sorted by total wall-clock, descending."""
    totals: dict[str, dict] = {}
    for event in run.spans:
        name = event.get("name", "?")
        duration = float(event.get("duration_s", 0.0))
        row = totals.get(name)
        if row is None:
            row = totals[name] = {
                "name": name,
                "count": 0,
                "total_s": 0.0,
                "max_s": 0.0,
            }
        row["count"] += 1
        row["total_s"] += duration
        row["max_s"] = max(row["max_s"], duration)
    root_total = sum(
        float(event.get("duration_s", 0.0))
        for event in run.spans
        if event.get("parent_id") is None
    )
    rows = sorted(totals.values(), key=lambda row: -row["total_s"])
    for row in rows:
        row["mean_s"] = row["total_s"] / row["count"]
        row["share"] = row["total_s"] / root_total if root_total > 0 else 0.0
    return rows


def cache_row(run: RunData) -> dict | None:
    """Cache-effectiveness summary of one run (None when nothing cached)."""
    counters = run.counters()
    hits = counters.get("cache.hits")
    misses = counters.get("cache.misses")
    if hits is None and misses is None:
        # Fall back to the per-step span attributes (e.g. a run whose
        # metrics event was lost to a crash).
        steps = [event for event in run.spans if event.get("name") == "compose.step"]
        if not any("cache_hit" in event.get("attrs", {}) for event in steps):
            return None
        hits = sum(1 for event in steps if event["attrs"].get("cache_hit"))
        misses = sum(
            1
            for event in steps
            if "cache_hit" in event["attrs"] and not event["attrs"]["cache_hit"]
        )
        counters = {}
    hits = int(hits or 0)
    misses = int(misses or 0)
    lookups = hits + misses
    return {
        "run": run.label,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
        "stores": int(counters.get("cache.stores", 0)),
        "saved_seconds": float(counters.get("cache.saved_seconds", 0.0)),
        "regathers": int(counters.get("cache.regathers", 0)),
        "skeleton_stores": int(counters.get("cache.skeleton_stores", 0)),
    }


def statespace_rows(run: RunData) -> list[dict]:
    """One state-space growth row per ``compose.run`` span, i.e. per pipeline.

    A row covers the ``compose.step`` spans whose ancestor is that run, so
    the two pipelines of one evaluator (availability and the ``_no_repair``
    model's reliability) are reported apart, each with its own final CTMC.
    """
    by_id = {event.get("span_id"): event for event in run.spans}
    steps_of_run: dict = {}
    for event in run.spans:
        if event.get("name") != "compose.step":
            continue
        ancestor = by_id.get(event.get("parent_id"))
        while ancestor is not None and ancestor.get("name") != "compose.run":
            ancestor = by_id.get(ancestor.get("parent_id"))
        if ancestor is not None:
            steps_of_run.setdefault(ancestor.get("span_id"), []).append(
                event.get("attrs", {})
            )

    rows = []
    for event in run.spans:
        if event.get("name") != "compose.run":
            continue
        attrs = event.get("attrs", {})
        steps = steps_of_run.get(event.get("span_id"), [])
        ctmc_states = attrs.get("ctmc_states")
        rows.append(
            {
                "run": run.label,
                "model": attrs.get("model"),
                "composition_steps": len(steps),
                "peak_states_before_reduction": max(
                    (int(step.get("states_before", 0)) for step in steps), default=0
                ),
                "last_states_after_reduction": (
                    int(steps[-1].get("states_after", 0)) if steps else 0
                ),
                "final_ctmc_states": None if ctmc_states is None else int(ctmc_states),
                "peak_rss_mb": attrs.get("peak_rss_mb"),
            }
        )
    return rows


def throughput_row(run: RunData) -> dict | None:
    """Simulation/sweep throughput from the counters and histograms."""
    counters = run.counters()
    histograms = run.metrics.get("histograms", {})
    events = counters.get("simulate.events")
    points = counters.get("sweep.points")
    if events is None and points is None:
        return None
    row: dict = {"run": run.label}
    if events is not None:
        row["simulated_events"] = int(events)
        rate = histograms.get("simulate.events_per_second")
        if rate and rate.get("count"):
            row["events_per_second_mean"] = rate["mean"]
    if points is not None:
        row["sweep_points"] = int(points)
        seconds = histograms.get("sweep.point_seconds")
        if seconds and seconds.get("count") and seconds["sum"] > 0:
            row["points_per_second"] = seconds["count"] / seconds["sum"]
    return row


def report_data(runs: list[RunData]) -> dict:
    """The full report as one JSON-serialisable document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "runs": [
            {
                "path": run.path,
                "run_id": run.label,
                "tool": run.tool,
                "git": run.manifest.get("git") if run.manifest else None,
                "spans": len(run.spans),
                "phases": phase_rows(run),
                "cache": cache_row(run),
                "state_space": statespace_rows(run),
                "throughput": throughput_row(run),
                "counters": run.counters(),
            }
            for run in runs
        ],
    }


# ---------------------------------------------------------------------- #
# text rendering
# ---------------------------------------------------------------------- #
def _format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  " + "  ".join(header.ljust(widths[column]) for column, header in enumerate(headers))
    ]
    for row in rows:
        lines.append(
            "  " + "  ".join(cell.ljust(widths[column]) for column, cell in enumerate(row))
        )
    return lines


def render_text(runs: list[RunData]) -> str:
    lines: list[str] = []
    for run in runs:
        manifest = run.manifest or {}
        header = f"run {run.label}"
        details = [
            part
            for part in (
                manifest.get("tool"),
                f"git {manifest['git']}" if manifest.get("git") else None,
                f"{len(run.spans)} spans",
            )
            if part
        ]
        if details:
            header += f" ({', '.join(details)})"
        lines.append(header)

        phases = phase_rows(run)
        if phases:
            lines.append("phase timings:")
            lines.extend(
                _format_table(
                    ["span", "count", "total_s", "mean_s", "max_s", "share"],
                    [
                        [
                            row["name"],
                            str(row["count"]),
                            f"{row['total_s']:.3f}",
                            f"{row['mean_s']:.4f}",
                            f"{row['max_s']:.3f}",
                            f"{row['share']:.1%}",
                        ]
                        for row in phases
                    ],
                )
            )
        cache = cache_row(run)
        if cache is not None:
            lines.append("cache effectiveness:")
            lines.extend(
                _format_table(
                    [
                        "hits",
                        "misses",
                        "hit_rate",
                        "stores",
                        "saved_s",
                        "regathers",
                        "skeletons",
                    ],
                    [
                        [
                            str(cache["hits"]),
                            str(cache["misses"]),
                            f"{cache['hit_rate']:.1%}",
                            str(cache["stores"]),
                            f"{cache['saved_seconds']:.3f}",
                            str(cache["regathers"]),
                            str(cache["skeleton_stores"]),
                        ]
                    ],
                )
            )
        spaces = statespace_rows(run)
        if spaces:
            lines.append("state-space growth:")
            lines.extend(
                _format_table(
                    [
                        "model",
                        "steps",
                        "peak_before",
                        "last_after",
                        "final_ctmc",
                        "peak_rss_mb",
                    ],
                    [
                        [
                            str(space["model"] or "-"),
                            str(space["composition_steps"]),
                            str(space["peak_states_before_reduction"]),
                            str(space["last_states_after_reduction"]),
                            str(space["final_ctmc_states"] or "-"),
                            "-"
                            if space["peak_rss_mb"] is None
                            else f"{space['peak_rss_mb']:.0f}",
                        ]
                        for space in spaces
                    ],
                )
            )
        throughput = throughput_row(run)
        if throughput is not None:
            parts = []
            if "simulated_events" in throughput:
                parts.append(f"{throughput['simulated_events']} simulated events")
                if "events_per_second_mean" in throughput:
                    parts.append(
                        f"{throughput['events_per_second_mean']:,.0f} events/s"
                    )
            if "sweep_points" in throughput:
                parts.append(f"{throughput['sweep_points']} sweep points")
                if "points_per_second" in throughput:
                    parts.append(f"{throughput['points_per_second']:.2f} points/s")
            lines.append("throughput: " + ", ".join(parts))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect telemetry JSONL runs written with --telemetry",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report", help="phase-timing / cache / state-space report over runs"
    )
    report.add_argument("runs", nargs="+", help="telemetry JSONL file(s)")
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of text"
    )
    args = parser.parse_args(argv)
    try:
        runs = load_runs(args.runs)
    except TelemetryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report_data(runs), indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_text(runs))
    return 0


__all__ = [
    "RunData",
    "cache_row",
    "load_run",
    "load_runs",
    "main",
    "phase_rows",
    "report_data",
    "render_text",
    "statespace_rows",
    "throughput_row",
]
