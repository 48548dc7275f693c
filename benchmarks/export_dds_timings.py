"""Export DDS pipeline phase timings as JSON (CI perf-trajectory artifact).

Runs the full distributed-database-system compositional aggregation under
every bisimulation variant — strong, weak and branching (the equivalence the
paper's CADP tool chain used) — and writes a machine-readable breakdown of
where the wall-clock went: the compose phase (parallel products + hiding)
versus the reduce phase (maximal-progress cut, vanishing-chain elimination,
bisimulation minimisation), plus per-step sizes.  The top-level fields keep
the historical strong-mode layout so the artifact stays comparable across
PRs; the ``reductions`` map carries the head-to-head comparison.

Two further outputs close the PR-5 loops:

* ``cache`` — the isomorphism-aware quotient cache raced against the
  uncached pipeline, on the paper instance (hit-rate dominated: the
  replicated subtrees are cheap at 4 disks per cluster) and on a disk-heavy
  instance where the replicated subtrees dominate and the cache cuts the
  compose+reduce wall-clock by >=2x, with hit-rate and time-saved summaries
  per run.
* a ``cost-parameters-dds.json`` side file — damping factors of the
  planner's cost model re-fitted from the recorded strong-mode statistics
  (:meth:`repro.planner.CostModel.calibrated`), for
  ``plan_order(parameters=...)`` / ``Composer(plan_parameters=...)`` to
  load instead of the built-in defaults.

CI uploads the files as the ``dds-phase-timings`` artifact (see
``.github/workflows/ci.yml``).

Run with::

    python benchmarks/export_dds_timings.py [output.json] \\
        [--telemetry run.jsonl] [--verbose | --quiet]

``--telemetry`` additionally records the span/metric stream of every
pipeline run (schema of :mod:`repro.telemetry`); render it afterwards with
``python -m repro.telemetry report run.jsonl``.
"""

# Allow running straight from a checkout: put src/ on the path when the
# package is not installed (see docs/testing.md).
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import argparse
import json
import platform
import time

from repro.telemetry import (
    SCHEMA_VERSION,
    add_observability_arguments,
    configure_logging,
    get_logger,
    telemetry_session,
)

log = get_logger("bench.export_dds_timings")

#: Every bisimulation variant of the reduction pipeline, benchmarked
#: head-to-head on the same DDS model.
REDUCTIONS = ("strong", "weak", "branching")

#: Disk-heavy instance for the cache race: the per-cluster subtrees grow to
#: ~1.2M pre-reduction states, so the replicated work the cache removes
#: dominates the pipeline; at 3 clusters two of the three subtrees are
#: cache-served (uncached: ~40s, still CI-sized).
CACHE_HEAVY_INSTANCE = {"num_clusters": 3, "disks_per_cluster": 8}


def run_one(reduction: str, *, parameters=None, cache: str = "off") -> dict:
    from repro.casestudies.dds import MISSION_TIME_HOURS, build_dds_evaluator

    started = time.perf_counter()
    evaluator = build_dds_evaluator(parameters, reduction=reduction, cache=cache)
    availability = evaluator.availability()
    reliability = evaluator.reliability(MISSION_TIME_HOURS)
    wall_clock = time.perf_counter() - started

    stats = evaluator.composed.statistics.to_dict()
    result = {
        "measures": {
            "availability": availability,
            "reliability_5_weeks": reliability,
        },
        # The telemetry-schema statistics (CompositionStatistics.to_dict()),
        # shared with the `span` attributes of `--telemetry` streams.
        "statistics": {key: value for key, value in stats.items() if key != "steps"},
        # Historical aliases of the same numbers, kept so the artifact
        # series stays comparable across PRs.
        "phases": {
            "compose_seconds": round(stats["total_compose_seconds"], 4),
            "reduce_seconds": round(stats["total_reduce_seconds"], 4),
            "total_pipeline_seconds": round(stats["total_seconds"], 4),
            "wall_clock_seconds": round(wall_clock, 4),
        },
        "state_space": {
            "composition_steps": stats["num_steps"],
            "largest_intermediate_states": stats["largest_intermediate_states"],
            "largest_intermediate_transitions": (
                stats["largest_intermediate_transitions"]
            ),
            "final_ctmc_states": evaluator.ctmc.num_states,
            "final_ctmc_transitions": evaluator.ctmc.num_transitions,
        },
        "steps": stats["steps"],
    }
    if evaluator.composed.plan_report is not None:
        result["plan"] = evaluator.composed.plan_report.to_dict()
    if evaluator.cache is not None:
        result["cache"] = evaluator.cache.summary()
    return result


def race_cache(parameters=None) -> dict:
    """Strong-mode pipeline with the quotient cache off vs on."""
    disabled = run_one("strong", parameters=parameters, cache="off")
    enabled = run_one("strong", parameters=parameters, cache="on")
    off_seconds = disabled["phases"]["total_pipeline_seconds"]
    on_seconds = enabled["phases"]["total_pipeline_seconds"]
    return {
        "bit_identical_measures": disabled["measures"] == enabled["measures"],
        "speedup": round(off_seconds / on_seconds, 3) if on_seconds else None,
        "disabled": {key: value for key, value in disabled.items() if key != "steps"},
        "enabled": {key: value for key, value in enabled.items() if key != "steps"},
    }


def fit_cost_parameters(output_dir: Path) -> Path:
    """Re-fit the planner's damping factors from a recorded strong run."""
    from repro.casestudies.dds import build_dds_evaluator
    from repro.planner import CostModel, save_cost_parameters

    evaluator = build_dds_evaluator()
    evaluator.availability()
    model = CostModel(evaluator.translated)
    calibrated = model.calibrated(
        evaluator.composed.statistics, order=evaluator.order
    )
    path = output_dir / "cost-parameters-dds.json"
    save_cost_parameters(
        path,
        calibrated.parameters,
        family="dds",
        source="export_dds_timings (strong, hierarchical)",
    )
    return path


def collect_timings() -> dict:
    from repro.casestudies.dds import DDSParameters

    reductions = {reduction: run_one(reduction) for reduction in REDUCTIONS}
    strong = reductions["strong"]
    return {
        "benchmark": "dds_compositional_aggregation",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        # Historical top-level layout (the strong-mode run), kept so the
        # artifact series stays comparable across PRs.
        "measures": strong["measures"],
        "phases": strong["phases"],
        "state_space": strong["state_space"],
        "steps": strong["steps"],
        # Head-to-head comparison of the three reduction modes.
        "reductions": {
            name: {key: value for key, value in data.items() if key != "steps"}
            for name, data in reductions.items()
        },
        # The quotient cache raced on the paper instance (replication is
        # cheap there — the interesting number is the hit rate) and on the
        # disk-heavy instance (where the cache buys the >=2x).
        "cache": {
            "paper_instance": race_cache(),
            "disk_heavy_instance": {
                "parameters": dict(CACHE_HEAVY_INSTANCE),
                **race_cache(DDSParameters(**CACHE_HEAVY_INSTANCE)),
            },
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Export DDS pipeline phase timings as JSON"
    )
    parser.add_argument(
        "output",
        nargs="?",
        default="dds-phase-timings.json",
        help="path of the JSON artifact (default: dds-phase-timings.json)",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)
    configure_logging(args)

    output = Path(args.output)
    with telemetry_session("export_dds_timings", args):
        timings = collect_timings()
    output.write_text(json.dumps(timings, indent=2) + "\n")
    for name, data in timings["reductions"].items():
        phases = data["phases"]
        space = data["state_space"]
        log.info(
            "%-9s compose %ss, reduce %ss (%s steps, final CTMC %s states)",
            name,
            phases["compose_seconds"],
            phases["reduce_seconds"],
            space["composition_steps"],
            space["final_ctmc_states"],
        )
    for instance, race in timings["cache"].items():
        enabled = race["enabled"] if "enabled" in race else race
        summary = enabled.get("cache", {})
        log.info(
            "cache %s: speedup %sx, hit rate %.0f%%, saved %ss, bit-identical: %s",
            instance,
            race.get("speedup"),
            100.0 * summary.get("hit_rate", 0),
            summary.get("saved_seconds", 0),
            race.get("bit_identical_measures"),
        )
    parameters_path = fit_cost_parameters(output.parent)
    log.info("wrote %s and %s", output, parameters_path)


if __name__ == "__main__":
    main()
