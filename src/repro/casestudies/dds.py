"""The Distributed Database System (DDS) case study (Section 5.1).

The system consists of two processors (one of which is a cold-standby-style
spare managed by an SMU), four disk controllers split into two sets, and 24
hard disks in six clusters of four.  The processors share one FCFS repair
unit; every controller set and every disk cluster has its own FCFS repair
unit.  The system is down when (1) both processors are down, or (2) some
controller set has no operational controller, or (3) more than one disk in a
cluster is down.

Rates (per hour): processor and controller failures ``1/2000``, disk
failures ``1/6000``, every repair ``1``; the mission time of Table 1 is five
weeks (840 hours).

The module provides both the paper's instance and a parametric generator
(used by the scaling benchmarks), the hierarchical composition order for the
compositional-aggregation pipeline, and a modular decomposition into
independent subsystems that serves as a fast cross-check of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ArcadeEvaluator, ModularEvaluator
from ..arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    down,
    k_of_n,
    spare_group,
)
from ..arcade.expressions import And, Expression, Literal, Or
from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder, hierarchical_order, require_serial
from ..distributions import Exponential
from ..errors import ModelError
from .orders import ORDER_CHOICES, validate_order_choice

#: Failure rate of processors and disk controllers (per hour).
PROCESSOR_FAILURE_RATE = 1.0 / 2000.0
#: Failure rate of hard disks (per hour).
DISK_FAILURE_RATE = 1.0 / 6000.0
#: Repair rate of every component (per hour).
REPAIR_RATE = 1.0
#: Mission time of Table 1: five weeks, in hours.
MISSION_TIME_HOURS = 5.0 * 7.0 * 24.0


@dataclass(frozen=True)
class DDSParameters:
    """Configuration of the (parametric) distributed database system."""

    num_controller_sets: int = 2
    controllers_per_set: int = 2
    num_clusters: int = 6
    disks_per_cluster: int = 4
    disks_down_for_cluster_failure: int = 2
    processor_failure_rate: float = PROCESSOR_FAILURE_RATE
    disk_failure_rate: float = DISK_FAILURE_RATE
    repair_rate: float = REPAIR_RATE

    def __post_init__(self) -> None:
        for name in (
            "num_controller_sets",
            "controllers_per_set",
            "num_clusters",
            "disks_per_cluster",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ModelError(f"DDSParameters.{name} must be at least 1, got {value!r}")
        if not 1 <= self.disks_down_for_cluster_failure <= self.disks_per_cluster:
            raise ModelError(
                "DDSParameters.disks_down_for_cluster_failure must lie in "
                f"[1, disks_per_cluster={self.disks_per_cluster}], "
                f"got {self.disks_down_for_cluster_failure!r}"
            )


def controller_name(set_index: int, position: int, parameters: DDSParameters) -> str:
    """Name of the ``position``-th controller of controller set ``set_index``."""
    return f"dc_{set_index * parameters.controllers_per_set + position + 1}"


def disk_name(cluster_index: int, position: int, parameters: DDSParameters) -> str:
    """Name of the ``position``-th disk of cluster ``cluster_index``."""
    return f"d_{cluster_index * parameters.disks_per_cluster + position + 1}"


def build_dds_model(parameters: DDSParameters | None = None) -> ArcadeModel:
    """Build the Arcade model of the distributed database system."""
    p = parameters or DDSParameters()
    model = ArcadeModel(name="distributed_database_system")

    # Processors: a primary and a spare managed by an SMU, shared FCFS repair.
    model.add_component(
        BasicComponent(
            "pp",
            time_to_failures=Exponential(p.processor_failure_rate),
            time_to_repairs=Exponential(p.repair_rate),
        )
    )
    model.add_component(
        BasicComponent(
            "ps",
            operational_modes=[spare_group()],
            time_to_failures=[
                Exponential(p.processor_failure_rate),  # inactive
                Exponential(p.processor_failure_rate),  # active
            ],
            time_to_repairs=Exponential(p.repair_rate),
        )
    )
    model.add_spare_unit(SpareManagementUnit("p_smu", primary="pp", spares=["ps"]))
    model.add_repair_unit(RepairUnit("p_rep", ["pp", "ps"], RepairStrategy.FCFS))

    # Disk controllers, grouped into sets; one FCFS repair unit per set.
    for set_index in range(p.num_controller_sets):
        names = []
        for position in range(p.controllers_per_set):
            name = controller_name(set_index, position, p)
            names.append(name)
            model.add_component(
                BasicComponent(
                    name,
                    time_to_failures=Exponential(p.processor_failure_rate),
                    time_to_repairs=Exponential(p.repair_rate),
                )
            )
        model.add_repair_unit(
            RepairUnit(f"cs_rep_{set_index + 1}", names, RepairStrategy.FCFS)
        )

    # Disks, grouped into clusters; one FCFS repair unit per cluster.
    for cluster_index in range(p.num_clusters):
        names = []
        for position in range(p.disks_per_cluster):
            name = disk_name(cluster_index, position, p)
            names.append(name)
            model.add_component(
                BasicComponent(
                    name,
                    time_to_failures=Exponential(p.disk_failure_rate),
                    time_to_repairs=Exponential(p.repair_rate),
                )
            )
        model.add_repair_unit(
            RepairUnit(f"cluster_rep_{cluster_index + 1}", names, RepairStrategy.FCFS)
        )

    model.set_system_down(system_down_expression(p))
    return model


def system_down_expression(parameters: DDSParameters | None = None) -> Expression:
    """The SYSTEM DOWN fault tree of Section 5.1.1."""
    p = parameters or DDSParameters()
    children: list[Expression] = [And([down("pp"), down("ps")])]
    for set_index in range(p.num_controller_sets):
        children.append(
            And(
                [
                    down(controller_name(set_index, position, p))
                    for position in range(p.controllers_per_set)
                ]
            )
        )
    for cluster_index in range(p.num_clusters):
        children.append(
            k_of_n(
                p.disks_down_for_cluster_failure,
                [
                    down(disk_name(cluster_index, position, p))
                    for position in range(p.disks_per_cluster)
                ],
            )
        )
    return Or(children)


def dds_subsystem_groups(parameters: DDSParameters | None = None) -> list[list[str]]:
    """The subsystem decomposition used for the composition order."""
    p = parameters or DDSParameters()
    groups: list[list[str]] = [["pp", "ps", "p_smu", "p_rep"]]
    for set_index in range(p.num_controller_sets):
        groups.append(
            [
                controller_name(set_index, position, p)
                for position in range(p.controllers_per_set)
            ]
            + [f"cs_rep_{set_index + 1}"]
        )
    for cluster_index in range(p.num_clusters):
        groups.append(
            [disk_name(cluster_index, position, p) for position in range(p.disks_per_cluster)]
            + [f"cluster_rep_{cluster_index + 1}"]
        )
    return groups


def dds_composition_order(
    translated: TranslatedModel, parameters: DDSParameters | None = None
) -> CompositionOrder:
    """Hierarchical composition order for the (possibly parametric) DDS."""
    groups = dds_subsystem_groups(parameters)
    present = set(translated.blocks)
    filtered = [[name for name in group if name in present] for group in groups]
    return hierarchical_order(translated, [group for group in filtered if group])


def build_dds_evaluator(
    parameters: DDSParameters | None = None,
    *,
    reduction: str = "strong",
    order: str = "hierarchical",
    cache="off",
    jobs: int = 1,
    state_budget: int | None = None,
) -> ArcadeEvaluator:
    """Evaluator for the full compositional-aggregation pipeline on the DDS.

    ``order`` selects the composition-order policy: ``"hierarchical"`` (the
    paper's subsystem decomposition, default), ``"greedy"`` (the composer's
    signal-closing heuristic) or ``"auto"`` (the planner of
    :mod:`repro.planner`).  ``cache`` enables the isomorphism-aware
    quotient cache (``"on"``/``"off"`` or a shared
    :class:`~repro.composer.QuotientCache`): the six disk clusters are
    isomorphic up to signal renaming, so with the cache each replicated
    subtree is composed and minimised once.  ``jobs`` must be 1 (see
    :func:`~repro.composer.require_serial`).
    """
    # perfbench/ passes jobs as 1; anything else is refused.
    require_serial(jobs)
    validate_order_choice(order)
    model = build_dds_model(parameters)
    evaluator = ArcadeEvaluator(
        model, reduction=reduction, cache=cache, state_budget=state_budget
    )
    if order == "hierarchical":
        evaluator.order = dds_composition_order(evaluator.translated, parameters)
    elif order == "auto":
        evaluator.order = "auto"
    return evaluator


def build_dds_subsystem_models(
    parameters: DDSParameters | None = None,
) -> tuple[dict[str, ArcadeModel], Expression]:
    """Decompose the DDS into independent subsystems for modular evaluation.

    The processor pair, each controller set and each disk cluster share no
    components or repair units, so evaluating them separately and combining
    the results through the top-level OR is exact.  This provides a fast
    cross-check of the Table 1 numbers that does not rely on the full
    compositional pipeline.
    """
    p = parameters or DDSParameters()
    subsystems: dict[str, ArcadeModel] = {}

    processors = ArcadeModel(name="dds_processors")
    processors.add_component(
        BasicComponent(
            "pp",
            time_to_failures=Exponential(p.processor_failure_rate),
            time_to_repairs=Exponential(p.repair_rate),
        )
    )
    processors.add_component(
        BasicComponent(
            "ps",
            operational_modes=[spare_group()],
            time_to_failures=[
                Exponential(p.processor_failure_rate),
                Exponential(p.processor_failure_rate),
            ],
            time_to_repairs=Exponential(p.repair_rate),
        )
    )
    processors.add_spare_unit(SpareManagementUnit("p_smu", primary="pp", spares=["ps"]))
    processors.add_repair_unit(RepairUnit("p_rep", ["pp", "ps"], RepairStrategy.FCFS))
    processors.set_system_down(And([down("pp"), down("ps")]))
    subsystems["processors"] = processors

    for set_index in range(p.num_controller_sets):
        subsystem = ArcadeModel(name=f"dds_controller_set_{set_index + 1}")
        names = []
        for position in range(p.controllers_per_set):
            name = controller_name(set_index, position, p)
            names.append(name)
            subsystem.add_component(
                BasicComponent(
                    name,
                    time_to_failures=Exponential(p.processor_failure_rate),
                    time_to_repairs=Exponential(p.repair_rate),
                )
            )
        subsystem.add_repair_unit(
            RepairUnit(f"cs_rep_{set_index + 1}", names, RepairStrategy.FCFS)
        )
        subsystem.set_system_down(And([down(name) for name in names]))
        subsystems[f"controller_set_{set_index + 1}"] = subsystem

    for cluster_index in range(p.num_clusters):
        subsystem = ArcadeModel(name=f"dds_cluster_{cluster_index + 1}")
        names = []
        for position in range(p.disks_per_cluster):
            name = disk_name(cluster_index, position, p)
            names.append(name)
            subsystem.add_component(
                BasicComponent(
                    name,
                    time_to_failures=Exponential(p.disk_failure_rate),
                    time_to_repairs=Exponential(p.repair_rate),
                )
            )
        subsystem.add_repair_unit(
            RepairUnit(f"cluster_rep_{cluster_index + 1}", names, RepairStrategy.FCFS)
        )
        subsystem.set_system_down(
            k_of_n(p.disks_down_for_cluster_failure, [down(name) for name in names])
        )
        subsystems[f"cluster_{cluster_index + 1}"] = subsystem

    system_down = Or([Literal(name, None) for name in subsystems])
    return subsystems, system_down


def build_dds_modular_evaluator(
    parameters: DDSParameters | None = None, *, reduction: str = "strong"
) -> ModularEvaluator:
    """Modular evaluator over the independent DDS subsystems."""
    subsystems, system_down = build_dds_subsystem_models(parameters)
    return ModularEvaluator(subsystems, system_down, reduction=reduction)


def dds_parameters_from_values(values) -> DDSParameters:
    """Resolve a sweep axis-value assignment to :class:`DDSParameters`.

    Structural axes (cluster and disk counts) arrive as floats from the
    sweep engine and are rounded back to integers.
    """
    defaults = DDSParameters()
    return DDSParameters(
        num_clusters=int(round(values.get("num_clusters", defaults.num_clusters))),
        disks_per_cluster=int(
            round(values.get("disks_per_cluster", defaults.disks_per_cluster))
        ),
        processor_failure_rate=float(
            values.get("processor_failure_rate", defaults.processor_failure_rate)
        ),
        disk_failure_rate=float(
            values.get("disk_failure_rate", defaults.disk_failure_rate)
        ),
        repair_rate=float(values.get("repair_rate", defaults.repair_rate)),
    )


def dds_sweep_factory():
    """The DDS as a sweepable model family (:mod:`repro.sweep`).

    Axes: the three rates (eligible for finite-difference sensitivities)
    plus the structural ``num_clusters`` / ``disks_per_cluster`` counts.
    The composition-order hook rebuilds the hierarchical subsystem order for
    whatever structure a point asks for, and the importance components cover
    one representative of each subsystem kind (primary processor, first
    controller, first disk).
    """
    from ..sweep import SweepFactory

    defaults = DDSParameters()

    def build(values) -> ArcadeModel:
        return build_dds_model(dds_parameters_from_values(values))

    def order(translated: TranslatedModel, values) -> CompositionOrder:
        return dds_composition_order(translated, dds_parameters_from_values(values))

    return SweepFactory(
        name="dds",
        build=build,
        base={
            "processor_failure_rate": defaults.processor_failure_rate,
            "disk_failure_rate": defaults.disk_failure_rate,
            "repair_rate": defaults.repair_rate,
            "num_clusters": float(defaults.num_clusters),
            "disks_per_cluster": float(defaults.disks_per_cluster),
        },
        order=order,
        rate_axes=("processor_failure_rate", "disk_failure_rate", "repair_rate"),
        importance_components=("pp", "dc_1", "d_1"),
    )


def main(argv: list[str] | None = None) -> None:
    """CLI: run the DDS case study under a chosen reduction mode.

    ``python -m repro.casestudies.dds --reduction branching`` reproduces the
    Table-1 numbers with the reduction the paper's CADP tool chain actually
    used; ``strong`` and ``weak`` allow head-to-head comparisons of the
    three bisimulation variants on the same model.  The options shared with
    the RCS CLI are declared by
    :func:`~repro.casestudies.sweep_cli.case_study_parser`.
    """
    from .sweep_cli import case_study_parser, run_case_study

    parser = case_study_parser("Distributed Database System case study (Section 5.1)")
    parser.add_argument(
        "--clusters",
        type=int,
        default=DDSParameters().num_clusters,
        help="number of disk clusters (paper: 6); scales the model",
    )
    parser.add_argument(
        "--disks-per-cluster",
        type=int,
        default=DDSParameters().disks_per_cluster,
        help="disks per cluster (paper: 4); scales the replicated subtrees",
    )
    run_case_study("dds", parser, _run, argv)


def _run(args, log) -> None:
    import time

    from ..composer import resolve_cache
    from .sweep_cli import (
        load_cache_file,
        log_cache_summary,
        run_sweep_cli,
        save_cache_file,
        simulation_evaluator,
    )

    if args.sweep:
        import dataclasses

        # --clusters / --disks-per-cluster pin the structural axes of the
        # swept family (they stay sweepable via --sweep-grid num_clusters=...).
        factory = dds_sweep_factory()
        factory = dataclasses.replace(
            factory,
            base={
                **factory.base,
                "num_clusters": float(args.clusters),
                "disks_per_cluster": float(args.disks_per_cluster),
            },
        )
        # Default when no axes are given: a small rate grid around Table 1.
        run_sweep_cli(
            factory,
            args,
            default_grid={
                "disk_failure_rate": [
                    DISK_FAILURE_RATE / 2.0,
                    DISK_FAILURE_RATE,
                    DISK_FAILURE_RATE * 2.0,
                ],
                "repair_rate": [0.5, 1.0, 2.0],
            },
        )
        return

    parameters = DDSParameters(
        num_clusters=args.clusters, disks_per_cluster=args.disks_per_cluster
    )
    if args.backend == "simulate":
        started = time.perf_counter()
        evaluator = simulation_evaluator(build_dds_model(parameters), args)
        availability = evaluator.availability()
        interval = evaluator.simulation_interval
        reliability = evaluator.reliability(MISSION_TIME_HOURS)
        elapsed = time.perf_counter() - started
        log.info("DDS (%s clusters), backend=simulate (RESTART)", args.clusters)
        log.info("  availability          %.9f", availability)
        if interval is not None:
            log.info("  unavailability CI     %s", interval.describe())
        log.info("  reliability (5 weeks) %.9f", reliability)
        log.info("  wall-clock %.1fs", elapsed)
        return

    started = time.perf_counter()
    cache = resolve_cache(args.cache)
    load_cache_file(cache, args)
    evaluator = build_dds_evaluator(
        parameters,
        reduction=args.reduction,
        order=args.order,
        cache=cache if cache is not None else "off",
        state_budget=args.state_budget,
    )
    availability = evaluator.availability()
    reliability = evaluator.reliability(MISSION_TIME_HOURS)
    elapsed = time.perf_counter() - started
    statistics = evaluator.composed.statistics
    log.info(
        "DDS (%s clusters), reduction=%s, order=%s",
        args.clusters,
        args.reduction,
        args.order,
    )
    if evaluator.cache is not None:
        log_cache_summary(log, evaluator.cache.summary())
    log.info(
        "  final CTMC: %s states / %s transitions",
        evaluator.ctmc.num_states,
        evaluator.ctmc.num_transitions,
    )
    log.info(
        "  largest intermediate: %s states over %s composition steps",
        statistics.largest_intermediate_states,
        len(statistics.steps),
    )
    log.info("  availability          %.9f", availability)
    log.info("  reliability (5 weeks) %.9f", reliability)
    log.info(
        "  wall-clock %.1fs (compose %.1fs, reduce %.1fs)",
        elapsed,
        statistics.total_compose_seconds,
        statistics.total_reduce_seconds,
    )
    save_cache_file(cache, args)


if __name__ == "__main__":
    main()


__all__ = [
    "DDSParameters",
    "DISK_FAILURE_RATE",
    "MISSION_TIME_HOURS",
    "ORDER_CHOICES",
    "PROCESSOR_FAILURE_RATE",
    "REPAIR_RATE",
    "build_dds_evaluator",
    "build_dds_model",
    "build_dds_modular_evaluator",
    "build_dds_subsystem_models",
    "controller_name",
    "dds_composition_order",
    "dds_parameters_from_values",
    "dds_subsystem_groups",
    "dds_sweep_factory",
    "disk_name",
    "system_down_expression",
]
