"""Tests of the telemetry layer: spans, metrics, sinks, report, purity.

The last class pins the observational contract of the whole subsystem: a
pipeline run with telemetry active is bit-identical — measures and cache
hit/miss flags — to the same run with telemetry off.
"""

import dataclasses
import io
import json
from contextlib import nullcontext, redirect_stdout

import pytest

from repro.casestudies.dds import (
    DDSParameters,
    MISSION_TIME_HOURS,
    build_dds_evaluator,
    dds_sweep_factory,
)
from repro.errors import TelemetryError
from repro.sweep import SweepConfig, run_sweep
from repro.telemetry import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    RunManifest,
    Telemetry,
    configure_logging,
    current_telemetry,
    get_logger,
    load_run,
    render_text,
    report_data,
)
from repro.telemetry.report import main as report_main, phase_rows
from repro.telemetry.trace import NULL_SPAN, incr, span


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc()
        registry.counter("cache.hits").inc(2)
        registry.gauge("peak").update_max(10)
        registry.gauge("peak").update_max(4)
        registry.histogram("rounds").observe(3)
        registry.histogram("rounds").observe(5)

        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"cache.hits": 3.0}
        assert snapshot["gauges"] == {"peak": 10.0}
        rounds = snapshot["histograms"]["rounds"]
        assert rounds["count"] == 2
        assert rounds["sum"] == 8.0
        assert rounds["min"] == 3.0
        assert rounds["max"] == 5.0
        assert rounds["mean"] == 4.0

    def test_untouched_gauge_is_left_out_of_the_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("peak")  # created, never written
        registry.gauge("floor").update_max(-3)
        assert registry.snapshot()["gauges"] == {"floor": -3.0}


# --------------------------------------------------------------------------- #
# spans and ambient helpers
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_nesting_records_parent_ids(self):
        telemetry = Telemetry(MemorySink())
        with telemetry.activate():
            with span("outer") as outer:
                with span("inner", depth=2) as inner:
                    inner.set(extra=True)
                assert inner.parent_id == outer.span_id
        events = telemetry.export_events()
        names = {event["name"]: event for event in events}
        assert names["inner"]["parent_id"] == names["outer"]["span_id"]
        assert names["outer"]["parent_id"] is None
        assert names["inner"]["attrs"] == {"depth": 2, "extra": True}
        assert all(event["trace_id"] == telemetry.run_id for event in events)
        # Children are emitted before their parents close (exit order).
        assert [event["name"] for event in events] == ["inner", "outer"]

    def test_ambient_helpers_are_noops_without_a_session(self):
        assert current_telemetry() is None
        with span("anything", ignored=1) as record:
            assert record is NULL_SPAN
            record.set(swallowed=True)  # must not raise
        incr("nothing")  # must not raise


# --------------------------------------------------------------------------- #
# JSONL sink, manifest, loader, report
# --------------------------------------------------------------------------- #
class TestJsonlRoundTrip:
    def _write_run(self, path):
        manifest = RunManifest.capture("testtool", args={"x": 1}, seeds={"seed": 7})
        telemetry = Telemetry(JsonlSink(path), manifest=manifest)
        with telemetry.activate():
            with telemetry.span("compose.run") as root:
                with telemetry.span("compose.step"):
                    incr("cache.hits", 3)
                    incr("cache.misses", 1)
                    incr("cache.regathers", 1)
            root.set(ctmc_states=21)
        telemetry.close()
        return telemetry

    def test_round_trip_and_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        telemetry = self._write_run(path)

        run = load_run(path)
        assert run.manifest["tool"] == "testtool"
        assert run.manifest["schema_version"] == SCHEMA_VERSION
        assert run.manifest["seeds"] == {"seed": 7}
        assert run.label == telemetry.run_id
        assert {event["name"] for event in run.spans} == {
            "compose.run",
            "compose.step",
        }
        assert run.counters()["cache.hits"] == 3.0

        rows = {row["name"]: row for row in phase_rows(run)}
        assert rows["compose.run"]["count"] == 1
        assert rows["compose.run"]["share"] == pytest.approx(1.0)

        text = render_text([run])
        assert "phase timings:" in text
        assert "cache effectiveness:" in text
        assert "regathers" in text
        data = report_data([run])
        assert data["runs"][0]["cache"]["hits"] == 3
        assert data["runs"][0]["cache"]["regathers"] == 1
        assert data["runs"][0]["cache"]["skeleton_stores"] == 0

    def test_report_cli(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        self._write_run(path)
        assert report_main(["report", str(path)]) == 0
        assert "phase timings:" in capsys.readouterr().out
        assert report_main(["report", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["tool"] == "testtool"

    def test_loader_rejects_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="does not exist"):
            load_run(tmp_path / "absent.jsonl")
        assert report_main(["report", str(tmp_path / "absent.jsonl")]) == 2

    def test_loader_rejects_bad_json_and_newer_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            load_run(bad)
        newer = tmp_path / "newer.jsonl"
        newer.write_text(
            json.dumps(
                {"type": "manifest", "schema_version": SCHEMA_VERSION + 1}
            )
            + "\n"
        )
        with pytest.raises(TelemetryError, match="schema"):
            load_run(newer)


# --------------------------------------------------------------------------- #
# pipeline instrumentation
# --------------------------------------------------------------------------- #
SMALL = DDSParameters(num_clusters=2)


class TestPipelineInstrumentation:
    def test_compose_emits_spans_and_cache_counters(self):
        telemetry = Telemetry(MemorySink())
        with telemetry.activate():
            evaluator = build_dds_evaluator(SMALL, cache="on")
            evaluator.availability()
        names = {event["name"] for event in telemetry.export_events()}
        assert {"compose.run", "compose.step", "reduce.strong", "lumping.refine"} <= names
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["cache.hits"] > 0
        assert counters["cache.misses"] > 0
        # The cache writes each lifetime counter and its telemetry twin
        # together, so one fresh cache and one run read the same numbers.
        cache = evaluator.cache
        summary = cache.summary()
        assert counters["cache.hits"] == summary["hits"]
        assert counters["cache.misses"] == summary["misses"]
        assert counters["cache.stores"] == cache.stores
        assert counters["cache.saved_seconds"] == pytest.approx(cache.saved_seconds)

    def test_sweep_points_reuse_translated_blocks(self):
        factory = dds_sweep_factory()
        base = {**factory.base, "num_clusters": 2.0, "disks_per_cluster": 3.0}
        factory = dataclasses.replace(factory, base=base)
        rate = base["disk_failure_rate"]
        config = SweepConfig(
            grid={"disk_failure_rate": [rate, 2.0 * rate]},
            sensitivity_axes=(),
            importance=False,
            mission_time=MISSION_TIME_HOURS,
        )
        telemetry = Telemetry(MemorySink())
        with telemetry.activate():
            run_sweep(factory, config)
        translations = [
            event["attrs"]
            for event in telemetry.export_events()
            if event["name"] == "arcade.translate"
        ]
        # Per point: the repairable model, then the no-repair model.
        assert len(translations) == 4
        for attrs in translations[2:]:
            assert attrs["reused"] > 0
            assert attrs["built"] + attrs["reused"] == attrs["blocks"]

    def test_final_lump_span_wraps_its_refinement(self):
        telemetry = Telemetry(MemorySink())
        with telemetry.activate():
            evaluator = build_dds_evaluator(SMALL)
            chain = evaluator.ctmc
        events = telemetry.export_events()
        lumps = [event for event in events if event["name"] == "ctmc.lump"]
        assert len(lumps) == 1
        (run,) = [event for event in events if event["name"] == "compose.run"]
        assert lumps[0]["parent_id"] == run["span_id"]
        assert lumps[0]["attrs"]["blocks"] == chain.num_states
        assert lumps[0]["attrs"]["states"] >= chain.num_states
        refinements = [
            event
            for event in events
            if event["name"] == "lumping.refine"
            and event["parent_id"] == lumps[0]["span_id"]
        ]
        assert len(refinements) == 1
        assert refinements[0]["attrs"]["blocks"] == chain.num_states
        rounds = telemetry.metrics.snapshot()["histograms"]["lumping.refine_rounds"]
        reductions = [event for event in events if event["name"].startswith("reduce.")]
        assert rounds["count"] == len(reductions) + 1

    @pytest.mark.slow
    def test_report_gives_one_state_space_row_per_pipeline(self, tmp_path):
        """Availability and R(5 weeks) run two pipelines (the second on the
        ``_no_repair`` model); the report must not pool their steps."""
        path = tmp_path / "dds.jsonl"
        telemetry = Telemetry(JsonlSink(path))
        with telemetry.activate():
            evaluator = build_dds_evaluator(cache="on")
            evaluator.availability()
            evaluator.reliability(MISSION_TIME_HOURS)
        telemetry.close()

        run = load_run(path)
        columns = (
            "model",
            "composition_steps",
            "peak_states_before_reduction",
            "last_states_after_reduction",
            "final_ctmc_states",
        )
        expected = [
            ("distributed_database_system", 56, 50375, 2100, 2100),
            ("distributed_database_system_no_repair", 47, 8588, 199, 199),
        ]
        rows = report_data([run])["runs"][0]["state_space"]
        assert [tuple(row[column] for column in columns) for row in rows] == expected

        table = render_text([run]).split("state-space growth:\n")[1].splitlines()
        assert table[0].split()[-1] == "peak_rss_mb"
        assert [line.split()[:-1] for line in table[1:3]] == [
            [str(cell) for cell in row] for row in expected
        ]
        assert [line.split()[-1] for line in table[1:3]] == [
            f"{row['peak_rss_mb']:.0f}" for row in rows
        ]

        # The RSS figure is a high-water mark read at span close: positive,
        # and never falling from one closed step or pipeline to the next.
        peaks = [
            event["attrs"]["peak_rss_mb"]
            for event in run.spans
            if event["name"] in ("compose.step", "compose.run")
        ]
        assert len(peaks) == 56 + 47 + 2
        assert peaks[0] > 0
        assert peaks == sorted(peaks)


class TestConsoleLogging:
    def test_cli_log_follows_the_current_stdout(self):
        """Each in-process CLI run writes to the stdout of its own scope,
        not to the one the handler was first installed under."""
        outputs = []
        for run in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                configure_logging()
                get_logger("console_test").info(f"run {run}")
            outputs.append(buffer.getvalue())
        assert outputs == ["run 0\n", "run 1\n"]


# --------------------------------------------------------------------------- #
# observational purity (telemetry on == telemetry off, bit for bit)
# --------------------------------------------------------------------------- #
class TestObservationalPurity:
    def _run(self, with_telemetry: bool):
        telemetry = Telemetry(MemorySink())
        with telemetry.activate() if with_telemetry else nullcontext():
            evaluator = build_dds_evaluator(SMALL, cache="on")
            availability = evaluator.availability()
            reliability = evaluator.reliability(MISSION_TIME_HOURS)
        hit_flags = [
            step.cache_hit for step in evaluator.composed.statistics.steps
        ]
        return availability, reliability, hit_flags

    def test_telemetry_does_not_change_results(self):
        baseline = self._run(with_telemetry=False)
        traced = self._run(with_telemetry=True)
        assert traced[0] == baseline[0], "availability must be bit-identical"
        assert traced[1] == baseline[1], "reliability must be bit-identical"
        assert traced[2] == baseline[2], "cache hit flags must be identical"
