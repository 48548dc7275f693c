"""Section 5.1.2: state-space statistics of the DDS analysis.

The paper reports, for the distributed database system:

* a final CTMC of 2,100 states and 15,120 transitions,
* a largest intermediate I/O-IMC of 6,522 states and 33,486 transitions
  during compositional aggregation, and
* 16,695 states for the SAN model of [19].

This benchmark regenerates those statistics with this library's pipeline
(the largest intermediate differs because the composition order differs
from CADP's; the final CTMC matches the paper exactly, and since PR 3 the
paper's branching-bisimulation reduction is available as
``build_dds_evaluator(reduction="branching")`` — it produces the same
trajectory as the default strong mode on this model, pinned in
``tests/test_golden_regression.py``) and with the flat SAN-style GSPN
baseline.

Run as a script, the module sweeps the parametric DDS growth curve
(clusters x reduction mode x composition-order policy) and writes the
results as JSON for the CI artifact (see ``main`` below)::

    python benchmarks/bench_dds_statespace.py [dds-growth-curve.json]
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # script mode without an installed package / PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.arcade.semantics import translate_model
from repro.baselines import flat_compose
from repro.baselines.gspn import build_dds_gspn, reachable_markings
from repro.casestudies.dds import DDSParameters, build_dds_evaluator, build_dds_model
from repro.telemetry import get_logger

log = get_logger("bench.dds_statespace")

PAPER_FINAL_CTMC = (2100, 15120)
PAPER_LARGEST_INTERMEDIATE = (6522, 33486)
PAPER_SAN_STATES = 16695


@pytest.fixture(scope="module")
def arcade_evaluator():
    evaluator = build_dds_evaluator()
    evaluator.availability()
    return evaluator


def test_final_ctmc_size(benchmark, arcade_evaluator):
    """The compositional pipeline ends in the paper's 2,100-state CTMC."""
    ctmc = benchmark(lambda: arcade_evaluator.ctmc)
    print(
        f"\nDDS final CTMC: {ctmc.num_states} states / {ctmc.num_transitions} transitions "
        f"(paper: {PAPER_FINAL_CTMC[0]} / {PAPER_FINAL_CTMC[1]})"
    )
    assert (ctmc.num_states, ctmc.num_transitions) == PAPER_FINAL_CTMC


def test_largest_intermediate(benchmark, arcade_evaluator):
    """Largest model encountered during compositional aggregation."""
    statistics = benchmark(lambda: arcade_evaluator.composed.statistics)
    print(
        f"\nDDS largest intermediate: {statistics.largest_intermediate_states} states / "
        f"{statistics.largest_intermediate_transitions} transitions "
        f"(paper, with branching bisimulation and CADP's ordering: "
        f"{PAPER_LARGEST_INTERMEDIATE[0]} / {PAPER_LARGEST_INTERMEDIATE[1]})"
    )
    print("Per-step sizes (before -> after reduction) and wall-clock:")
    for row in statistics.as_table():
        print(
            f"  {row['states_before']:>7} -> {row['states_after']:>6}   "
            f"compose {row['compose_s']:>7.3f}s  reduce {row['reduce_s']:>7.3f}s   "
            f"{row['step']}"
        )
    print(
        f"Totals: compose {statistics.total_compose_seconds:.2f}s, "
        f"reduce {statistics.total_reduce_seconds:.2f}s "
        f"(of which final pass {statistics.final_reduce_seconds:.2f}s)"
    )
    # Same order-of-magnitude story: intermediates stay far below the flat product.
    assert statistics.largest_intermediate_states < 200_000


def test_san_model_size(benchmark):
    """State count of the flat SAN-style model (folded GSPN)."""

    def count():
        net = build_dds_gspn()
        return len(reachable_markings(net))

    states = benchmark(count)
    print(
        f"\nSAN-style flat model: {states} markings "
        f"(paper's SAN model: {PAPER_SAN_STATES} states; the folded net exploits the "
        "cluster symmetry the SAN reward-model construction also uses)"
    )
    assert states > PAPER_FINAL_CTMC[0]


def test_flat_composition_explodes(benchmark):
    """Composing the DDS blocks without intermediate reduction exceeds any budget."""
    parameters = DDSParameters(num_clusters=2)
    translated = translate_model(build_dds_model(parameters))

    def run():
        return flat_compose(translated, max_states=150_000, build_ctmc=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nFlat (non-compositional) composition of a 2-cluster DDS: stopped after "
        f"{result.blocks_composed}/{result.total_blocks} blocks at {result.states} states "
        "(budget 150,000) — compositional aggregation is what makes the analysis feasible."
    )
    assert result.exceeded_budget


# --------------------------------------------------------------------------- #
# growth-curve sweep (script mode; CI uploads the JSON as `dds-growth-curve`)
# --------------------------------------------------------------------------- #
#: Cluster counts of the parametric growth curve (6 = the paper's instance).
GROWTH_CLUSTERS = (1, 2, 4, 6)
#: Every bisimulation variant, head-to-head on every instance.
GROWTH_REDUCTIONS = ("strong", "weak", "branching")
#: Composition-order policies compared per instance.
GROWTH_ORDERS = ("greedy", "auto")
#: Quotient-cache settings compared per instance.  The "on" runs *share*
#: one cache per (reduction, order) across the whole cluster sweep: the
#: clusters added at each size are isomorphic to the ones already cached,
#: so the savings grow super-linearly along the curve.
GROWTH_CACHES = ("off", "on")
#: The greedy heuristic's intermediates explode with the cluster count
#: (125k states / ~13s at one cluster, minutes at two, >15 min at six), so
#: the sweep only runs it up to this size and records the larger instances
#: as skipped — which is itself the datapoint.
GREEDY_MAX_CLUSTERS = 1


def _run_point(parameters, reduction, order, cache, row):
    """One pipeline run; extends ``row`` with its measurements."""
    import time

    started = time.perf_counter()
    evaluator = build_dds_evaluator(
        parameters, reduction=reduction, order=order, cache=cache
    )
    availability = evaluator.availability()
    elapsed = time.perf_counter() - started
    # The telemetry-schema statistics (CompositionStatistics.to_dict());
    # the flat row keys below are the historical aliases of those fields.
    stats = evaluator.composed.statistics.to_dict()
    row.update(
        {
            "availability": availability,
            "ctmc_states": evaluator.ctmc.num_states,
            "ctmc_transitions": evaluator.ctmc.num_transitions,
            "peak_intermediate_states": stats["largest_intermediate_states"],
            "composition_steps": stats["num_steps"],
            "compose_seconds": round(stats["total_compose_seconds"], 4),
            "reduce_seconds": round(stats["total_reduce_seconds"], 4),
            "wall_clock_seconds": round(elapsed, 4),
            "statistics": {
                key: value for key, value in stats.items() if key != "steps"
            },
        }
    )
    if evaluator.cache is not None:
        row["cache_hits"] = stats["cache_hits"]
        row["cache_saved_seconds"] = round(stats["cache_saved_seconds"], 4)
        row["cache_summary"] = evaluator.cache.summary()
    report = evaluator.composed.plan_report
    if report is not None:
        plan = report.to_dict()
        row["plan"] = plan
        row["plan_seconds"] = round(plan["wall_clock_seconds"], 4)
        row["plan_predicted_peak"] = plan["predicted_peak_states"]
    return row


def growth_curve_sweep(
    clusters=GROWTH_CLUSTERS,
    reductions=GROWTH_REDUCTIONS,
    orders=GROWTH_ORDERS,
    caches=GROWTH_CACHES,
    *,
    greedy_max_clusters: int = GREEDY_MAX_CLUSTERS,
) -> list[dict]:
    """One pipeline run per (clusters, reduction, order, cache) grid point."""
    from repro.composer import QuotientCache

    rows: list[dict] = []
    shared_caches: dict[tuple, QuotientCache] = {}
    for num_clusters in clusters:
        parameters = DDSParameters(num_clusters=num_clusters)
        for reduction in reductions:
            for order in orders:
                for cache_setting in caches:
                    row = {
                        "clusters": num_clusters,
                        "reduction": reduction,
                        "order": order,
                        "cache": cache_setting,
                    }
                    if order == "greedy" and num_clusters > greedy_max_clusters:
                        row["skipped"] = (
                            f"greedy intermediates explode beyond "
                            f"{greedy_max_clusters} cluster(s)"
                        )
                        rows.append(row)
                        continue
                    if cache_setting == "on":
                        cache = shared_caches.setdefault(
                            (reduction, order), QuotientCache()
                        )
                    else:
                        cache = "off"
                    _run_point(parameters, reduction, order, cache, row)
                    rows.append(row)
                    hits = row.get("cache_hits")
                    log.info(
                        "clusters=%s %-9s %-6s cache=%-3s peak %8s  wall %7.2fs%s",
                        num_clusters,
                        reduction,
                        order,
                        cache_setting,
                        f"{row['peak_intermediate_states']:,d}",
                        row["wall_clock_seconds"],
                        f"  hits {hits}" if hits is not None else "",
                    )
    return rows


# --------------------------------------------------------------------------- #
# disks-per-cluster sweep: the axis where the replicated subtrees dominate
# --------------------------------------------------------------------------- #
#: Disks-per-cluster values of the disk-growth sweep (4 = the paper).
DISK_GROWTH_DISKS = (4, 6, 8)
#: Cluster count of the disk-growth sweep (2 keeps the uncached 8-disk run
#: CI-sized while still containing a replicated cluster pair).
DISK_GROWTH_CLUSTERS = 2
#: State budget of the flat-baseline comparison runs.
DISK_GROWTH_FLAT_BUDGET = 150_000


def disk_growth_sweep(
    disks=DISK_GROWTH_DISKS,
    *,
    num_clusters: int = DISK_GROWTH_CLUSTERS,
    flat_budget: int = DISK_GROWTH_FLAT_BUDGET,
) -> list[dict]:
    """Cache on/off (strong mode) plus flat baseline along the disk axis.

    Growing the disks per cluster grows the replicated per-cluster subtrees
    — the work the quotient cache removes — so the cache-on/cache-off gap
    widens super-linearly along this axis while the flat baseline exhausts
    any state budget almost immediately.
    """
    import time

    rows: list[dict] = []
    for disks_per_cluster in disks:
        parameters = DDSParameters(
            num_clusters=num_clusters, disks_per_cluster=disks_per_cluster
        )
        row: dict = {
            "clusters": num_clusters,
            "disks_per_cluster": disks_per_cluster,
            "reduction": "strong",
        }
        flat_started = time.perf_counter()
        flat = flat_compose(
            translate_model(build_dds_model(parameters)),
            max_states=flat_budget,
            build_ctmc=False,
        )
        row["flat_baseline"] = {
            "states": flat.states,
            "blocks_composed": flat.blocks_composed,
            "total_blocks": flat.total_blocks,
            "exceeded_budget": flat.exceeded_budget,
            "budget": flat_budget,
            "wall_clock_seconds": round(time.perf_counter() - flat_started, 4),
        }
        for cache_setting in ("off", "on"):
            measured: dict = {}
            _run_point(parameters, "strong", "hierarchical", cache_setting, measured)
            row[f"cache_{cache_setting}"] = measured
        off_seconds = row["cache_off"]["compose_seconds"] + row["cache_off"]["reduce_seconds"]
        on_seconds = row["cache_on"]["compose_seconds"] + row["cache_on"]["reduce_seconds"]
        row["compose_reduce_speedup"] = (
            round(off_seconds / on_seconds, 3) if on_seconds else None
        )
        row["bit_identical_availability"] = (
            row["cache_off"]["availability"] == row["cache_on"]["availability"]
        )
        rows.append(row)
        log.info(
            "disks=%s peak %9s  off %7.2fs  on %7.2fs  speedup %sx  flat: %s",
            disks_per_cluster,
            f"{row['cache_off']['peak_intermediate_states']:,d}",
            off_seconds,
            on_seconds,
            row["compose_reduce_speedup"],
            "exceeded budget" if flat.exceeded_budget else flat.states,
        )
    return rows


def main(argv: list[str] | None = None) -> None:
    """Write the growth sweeps as JSON (CI artifact ``dds-growth-curve``)."""
    import argparse
    import json
    import platform

    from repro.telemetry import (
        SCHEMA_VERSION,
        add_observability_arguments,
        configure_logging,
        telemetry_session,
    )

    parser = argparse.ArgumentParser(
        description="Sweep the parametric DDS growth curve and write JSON"
    )
    parser.add_argument(
        "output",
        nargs="?",
        default="dds-growth-curve.json",
        help="path of the JSON artifact (default: dds-growth-curve.json)",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)
    configure_logging(args)

    output = Path(args.output)
    with telemetry_session("bench_dds_statespace", args):
        rows = growth_curve_sweep()
        disk_rows = disk_growth_sweep()
    output.write_text(
        json.dumps(
            {
                "benchmark": "dds_growth_curve",
                "schema_version": SCHEMA_VERSION,
                "python": platform.python_version(),
                "greedy_max_clusters": GREEDY_MAX_CLUSTERS,
                "rows": rows,
                "disk_growth_rows": disk_rows,
            },
            indent=2,
        )
        + "\n"
    )
    log.info("wrote %s", output)


if __name__ == "__main__":
    main()
