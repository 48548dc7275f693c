"""Schema of ``BENCH_TRAJECTORY.json``, the committed benchmark history.

Each entry holds the ``perfbench`` figures of one (change, workload,
metric): the median and interquartile range of the parent commit's runs
and, for a measured change, of the change's runs, with the seeds and the
number of alternating pairs behind them.
"""

import json
import numbers
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = json.loads((ROOT / "BENCH_TRAJECTORY.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
FIELDS = {
    "commit",
    "label",
    "workload",
    "metric",
    "unit",
    "parent",
    "change",
    "pairs",
    "seeds",
    "seconds",
    "source",
}


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_figures(figures, *, needs_iqr: bool) -> None:
    assert set(figures) == {"median", "iqr"}
    assert is_number(figures["median"]) and figures["median"] >= 0
    if needs_iqr or figures["iqr"] is not None:
        assert is_number(figures["iqr"]) and figures["iqr"] >= 0


def test_document_has_a_description_and_entries():
    assert set(TRAJECTORY) == {"description", "entries"}
    assert isinstance(TRAJECTORY["description"], str)
    assert TRAJECTORY["entries"]


@pytest.mark.parametrize(
    "entry",
    TRAJECTORY["entries"],
    ids=lambda entry: f"{entry.get('commit')}-{entry.get('workload')}-{entry.get('metric')}",
)
def test_entry_schema(entry):
    assert set(entry) == FIELDS
    assert re.fullmatch(r"[0-9a-f]{7,40}", entry["commit"])
    assert isinstance(entry["label"], str) and entry["label"]
    assert entry["workload"] in WORKLOADS
    assert UNITS.get(entry["metric"]) == entry["unit"]
    assert entry["source"] in ("measured", "transcribed")
    pairs = entry["pairs"]
    assert isinstance(pairs, int) and pairs >= 0
    seeds = entry["seeds"]
    assert seeds and all(isinstance(seed, int) for seed in seeds)
    assert len(set(seeds)) == len(seeds)
    assert is_number(entry["seconds"]) and entry["seconds"] > 0
    measured_pairs = entry["source"] == "measured" and pairs > 0
    check_figures(entry["parent"], needs_iqr=measured_pairs)
    if pairs == 0:
        # A baseline: runs of one commit, no change.
        assert entry["change"] is None
    else:
        check_figures(entry["change"], needs_iqr=measured_pairs)
    if measured_pairs:
        # Each alternating pair runs parent and change on one seed.
        assert len(seeds) == pairs


def test_entries_are_unique():
    keys = [
        (entry["commit"], entry["label"], entry["workload"], entry["metric"])
        for entry in TRAJECTORY["entries"]
    ]
    assert len(keys) == len(set(keys))
