"""The benchmark's own tests (about a minute; not part of the library suite).

Run from the root of the checkout::

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def names(kind: str) -> list[str]:
    return [metric["name"] for metric in SPEC[kind]]


def test_spec_names_the_workloads_the_runner_knows():
    assert names("workloads") == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_smoke_run(workload, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--quick",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == names("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads((tmp_path / workload / "seed3-trace0.json").read_text())
    assert record["inputs"]["jobs"] == 1 and record["inputs"]["seed"] == 3
    assert record["environment"]["nproc"] >= 1


def test_perturbed_pinned_value_raises_error_rate(monkeypatch):
    workload = WORKLOADS["rcs_mission"]
    pinned = dict(workload.pinned)
    pinned["unreliability_50h"] = math.nextafter(pinned["unreliability_50h"], 1.0)
    monkeypatch.setitem(
        bench.WORKLOADS, "rcs_mission", dataclasses.replace(workload, pinned=pinned)
    )
    record = bench.run("rcs_mission", seed=0, seconds=0.0, trace=False, quick=True)
    assert record["error_rate"] == 1.0
    assert record["result"]["correct"] is False
    assert record["result"]["failed"] == record["result"]["attempted"] == 1
    assert "unreliability_50h" in record["errors"][0]
    # A failed evaluation's time is never reported.
    assert record["samples"]["eval_s"] == [] and record["result"]["metrics"] == {}


def test_traced_self_times_sum_to_traced_wall_time():
    import repro.composer.composer as composer_module

    original = composer_module.compose
    record = bench.run("rcs_mission", seed=0, seconds=0.0, trace=True, quick=True)
    assert composer_module.compose is original  # wrappers removed after the run
    assert record["result"]["correct"]
    metrics = {name: m["value"] for name, m in record["result"]["metrics"].items()}
    assert list(metrics) == names("per_layer")
    self_time = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and name not in ("traced.eval_s", "tracing.overhead_s")
    )
    assert self_time == pytest.approx(metrics["traced.eval_s"], rel=1e-9)
    spans = [
        tracing.Span(s["name"], s["start"], s["end"], s["parent"]) for s in record["spans"]
    ]
    assert spans[0].name == tracing.ROOT and spans[0].parent is None
    assert all(span.parent is not None for span in spans[1:])
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0].duration, rel=1e-9)
    # The RCS profile: the dense steady-state solve dominates.
    assert metrics["ctmc.steady_state.stationary_s"] > 0.5 * metrics["traced.eval_s"]
