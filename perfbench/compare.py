"""Compare two sets of benchmark records, workload by workload.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``perfbench/run.py`` writes (by default
under ``.bench_out``), typically ten seeds per workload from one commit.
For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
each side, the relative delta and a verdict:

* ``unresolved`` — either side's spread (interquartile range over median)
  is wider than the metric's bound, and the runs do not separate cleanly;
* ``worse`` — the new median is worse than the base by more than the bound;
* ``better`` — the new median is better by more than the base's own
  interquartile range;
* ``unchanged`` — anything else.

Below each workload it lists the per-layer self-time deltas of the traced
records, largest first, as seconds and as a share of the base's traced
evaluation time: the layers that explain the end-to-end change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Layer deltas smaller than this share of the traced evaluation are noise.
LAYER_SHARE_FLOOR = 0.01
#: Per-layer metrics that are totals, not one layer's self time.
TOTALS = ("traced.eval_s", "tracing.overhead_s")


def load(directory: Path) -> dict[str, dict[int, dict[str, list[float]]]]:
    """``workload -> trace flag -> metric -> values``, one value per record."""
    values: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if "result" not in record or "workload" not in record:
            continue
        for name, metric in record["result"]["metrics"].items():
            values[record["workload"]][record["trace"]][name].append(metric["value"])
    return values


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, interquartile range)``; the range is 0 below two values."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return median, quartiles[2] - quartiles[0]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """Classify the change of one metric; returns ``(verdict, relative delta)``."""
    base_median, base_iqr = spread(base)
    new_median, new_iqr = spread(new)
    sign = 1.0 if better == "lower" else -1.0
    delta = (new_median - base_median) / base_median if base_median else 0.0
    worse_by = sign * delta
    relative_spread = max(
        base_iqr / abs(base_median) if base_median else 0.0,
        new_iqr / abs(new_median) if new_median else 0.0,
    )
    separated = max(sign * v for v in new) < min(sign * v for v in base) or min(
        sign * v for v in new
    ) > max(sign * v for v in base)
    if relative_spread > bound and not separated:
        return "unresolved", delta
    if worse_by > bound:
        return "worse", delta
    if worse_by < 0 and abs(new_median - base_median) > base_iqr:
        return "better", delta
    return "unchanged", delta


def layer_deltas(base: dict[str, list[float]], new: dict[str, list[float]]) -> list[tuple]:
    """``(metric, delta seconds, share of base traced time)``, largest first."""
    if "traced.eval_s" not in base:
        return []
    total = statistics.median(base["traced.eval_s"])
    rows = []
    for name in base:
        if not name.endswith("_s") or name in TOTALS or name not in new:
            continue
        delta = statistics.median(new[name]) - statistics.median(base[name])
        if total and abs(delta) / total >= LAYER_SHARE_FLOOR:
            rows.append((name, delta, delta / total))
    return sorted(rows, key=lambda row: -abs(row[1]))


def report(base_dir: Path, new_dir: Path) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_dir), load(new_dir)
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            lines.append(f"{workload}: missing from {'base' if workload not in base else 'new'}")
            continue
        lines.append(f"{workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload][0].get(name), new[workload][0].get(name)
            if not a or not b:
                continue
            label, delta = verdict(a, b, metric["better"], metric["bound"])
            lines.append(
                f"  {name:<12} {statistics.median(a):>12.6g} -> {statistics.median(b):<12.6g}"
                f" {delta:+8.2%}  (n={len(a)}/{len(b)}, bound {metric['bound']:.0%})  {label}"
            )
        for name, delta, share in layer_deltas(base[workload][1], new[workload][1]):
            lines.append(f"    {name:<34} {delta:+.4f} s  ({share:+.1%} of traced eval_s)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(report(args.base, args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
