"""The Reactor Cooling System (RCS) case study (Section 5.2).

The cooling system consists of two parallel pump lines, a heat exchanger
with its accompanying filter and valves, and a bypass with two motor-driven
valves.  The pumps share the load: when one pump fails the other switches to
a degraded operational mode with twice the failure rate (Erlang-2 times in
both modes).  The two pumps share one FCFS repair unit; every other
component has a dedicated repair unit.

The system is down when no pump line is operational, or when both the heat
exchanging unit and the bypass are down.  A pump line is down when its pump,
its filter or one of its control valves (stuck-closed only) is down; the
heat exchanging unit is down when the heat exchanger, its filter or one of
its valves fails (either mode); the bypass is down when one of its
motor-driven valves is stuck-closed.

Component counts per line/unit are not fully enumerated in the paper (nor in
its sources [7, 22]); the configuration below — two control valves per pump
line, one filter and two valves for the heat exchanging unit, two
motor-driven valves for the bypass — is the documented substitution (see
DESIGN.md).  Rates follow Section 5.2.1:

* pumps: Erlang-2 failures with phase rate ``5.44e-6`` (doubled when
  degraded), Erlang-2 repairs with phase rate ``0.1``;
* valves: two equally likely failure modes (stuck-open / stuck-closed) with
  a total failure rate of ``8.4e-8``; repairs ``exp(0.1)`` per mode;
* filters: failures ``exp(2.19e-6)``, repairs ``exp(0.1)``;
* heat exchanger: failures ``exp(1.14e-6)``, repairs ``exp(0.1)``.

Following the paper, the analysis uses modularization: the pump subsystem
and the heat-exchanger subsystem share no components, so their CTMCs are
generated and solved separately and the results are combined through the
system-level fault tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ArcadeEvaluator, ModularEvaluator
from ..arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    down,
)
from ..arcade.expressions import And, Expression, Literal, Or
from ..arcade.operational_modes import degradation_group
from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder, hierarchical_order, require_serial
from ..distributions import Erlang, Exponential
from .orders import ORDER_CHOICES, validate_order_choice

#: Phase rate of the Erlang-2 pump failure distribution (per hour).
PUMP_PHASE_RATE = 5.44e-6
#: Phase rate of the Erlang-2 pump repair distribution (per hour).
PUMP_REPAIR_PHASE_RATE = 0.1
#: Total failure rate of a valve (both failure modes together, per hour).
VALVE_FAILURE_RATE = 8.4e-8
#: Failure rate of a filter (per hour).
FILTER_FAILURE_RATE = 2.19e-6
#: Failure rate of the heat exchanger (per hour).
HEAT_EXCHANGER_FAILURE_RATE = 1.14e-6
#: Repair rate of valves, filters and the heat exchanger (per hour).
COMPONENT_REPAIR_RATE = 0.1
#: Mission time used in Section 5.2.2 (hours).
MISSION_TIME_HOURS = 50.0

#: Failure-mode tag of a stuck-open valve.
STUCK_OPEN = "m1"
#: Failure-mode tag of a stuck-closed valve.
STUCK_CLOSED = "m2"


@dataclass(frozen=True)
class RCSParameters:
    """Configuration of the reactor cooling system."""

    valves_per_pump_line: int = 2
    valves_in_heat_exchange_unit: int = 2
    motor_driven_valves: int = 2
    pump_phase_rate: float = PUMP_PHASE_RATE
    degraded_rate_factor: float = 2.0
    valve_failure_rate: float = VALVE_FAILURE_RATE
    filter_failure_rate: float = FILTER_FAILURE_RATE
    heat_exchanger_failure_rate: float = HEAT_EXCHANGER_FAILURE_RATE
    repair_rate: float = COMPONENT_REPAIR_RATE


# --------------------------------------------------------------------------- #
# component factories
# --------------------------------------------------------------------------- #
def _valve(name: str, parameters: RCSParameters) -> BasicComponent:
    """A valve with two equally likely failure modes (Section 5.2.1, item 2)."""
    return BasicComponent(
        name,
        time_to_failures=Exponential(parameters.valve_failure_rate),
        failure_mode_probabilities=(0.5, 0.5),
        time_to_repairs=[
            Exponential(parameters.repair_rate),
            Exponential(parameters.repair_rate),
        ],
    )


def _filter(name: str, parameters: RCSParameters) -> BasicComponent:
    """A filter that is either free ("up") or blocked ("down")."""
    return BasicComponent(
        name,
        time_to_failures=Exponential(parameters.filter_failure_rate),
        time_to_repairs=Exponential(parameters.repair_rate),
    )


def _pump(name: str, other_pump: str, parameters: RCSParameters) -> BasicComponent:
    """A load-sharing pump with normal/degraded modes (Section 5.2.1, item 1)."""
    return BasicComponent(
        name,
        operational_modes=[degradation_group(down(other_pump))],
        time_to_failures=[
            Erlang(2, parameters.pump_phase_rate),
            Erlang(2, parameters.pump_phase_rate * parameters.degraded_rate_factor),
        ],
        time_to_repairs=Erlang(2, PUMP_REPAIR_PHASE_RATE),
    )


def _add_dedicated_repair(model: ArcadeModel, component: str) -> None:
    model.add_repair_unit(
        RepairUnit(f"{component}_rep", [component], RepairStrategy.DEDICATED)
    )


# --------------------------------------------------------------------------- #
# subsystem builders
# --------------------------------------------------------------------------- #
def pump_line_components(line: int, parameters: RCSParameters) -> list[str]:
    """Names of the non-pump components of pump line ``line`` (1 or 2)."""
    names = [f"FP{line}"]
    for index in range(parameters.valves_per_pump_line):
        prefix = "VIP" if index == 0 else f"VOP{index}" if index > 1 else "VOP"
        names.append(f"{prefix}{line}")
    return names


def pump_line_down(line: int, parameters: RCSParameters) -> Expression:
    """Failure condition of one pump line (stuck-closed valves only)."""
    terms: list[Expression] = [down(f"P{line}"), down(f"FP{line}")]
    for name in pump_line_components(line, parameters)[1:]:
        terms.append(down(name, STUCK_CLOSED))
    return Or(terms)


def heat_exchange_unit_down(parameters: RCSParameters) -> Expression:
    """Failure condition of the heat exchanging unit (any valve failure counts)."""
    terms: list[Expression] = [down("HX"), down("FHX")]
    for index in range(parameters.valves_in_heat_exchange_unit):
        terms.append(down(f"VHX{index + 1}"))
    return Or(terms)


def bypass_down(parameters: RCSParameters) -> Expression:
    """Failure condition of the bypass (stuck-closed motor-driven valves)."""
    return Or(
        [
            down(f"MV{index + 1}", STUCK_CLOSED)
            for index in range(parameters.motor_driven_valves)
        ]
    )


def build_pump_subsystem(parameters: RCSParameters | None = None) -> ArcadeModel:
    """The pump subsystem: two load-sharing pump lines with a shared pump RU."""
    p = parameters or RCSParameters()
    model = ArcadeModel(name="rcs_pump_subsystem")
    model.add_component(_pump("P1", "P2", p))
    model.add_component(_pump("P2", "P1", p))
    model.add_repair_unit(RepairUnit("P_rep", ["P1", "P2"], RepairStrategy.FCFS))
    for line in (1, 2):
        for name in pump_line_components(line, p):
            if name.startswith("FP"):
                model.add_component(_filter(name, p))
            else:
                model.add_component(_valve(name, p))
            _add_dedicated_repair(model, name)
    model.set_system_down(And([pump_line_down(1, p), pump_line_down(2, p)]))
    return model


def build_heat_exchange_subsystem(parameters: RCSParameters | None = None) -> ArcadeModel:
    """The heat-exchanger-plus-bypass subsystem."""
    p = parameters or RCSParameters()
    model = ArcadeModel(name="rcs_heat_exchange_subsystem")
    model.add_component(
        BasicComponent(
            "HX",
            time_to_failures=Exponential(p.heat_exchanger_failure_rate),
            time_to_repairs=Exponential(p.repair_rate),
        )
    )
    _add_dedicated_repair(model, "HX")
    model.add_component(_filter("FHX", p))
    _add_dedicated_repair(model, "FHX")
    for index in range(p.valves_in_heat_exchange_unit):
        name = f"VHX{index + 1}"
        model.add_component(_valve(name, p))
        _add_dedicated_repair(model, name)
    for index in range(p.motor_driven_valves):
        name = f"MV{index + 1}"
        model.add_component(_valve(name, p))
        _add_dedicated_repair(model, name)
    model.set_system_down(And([heat_exchange_unit_down(p), bypass_down(p)]))
    return model


def build_rcs_model(parameters: RCSParameters | None = None) -> ArcadeModel:
    """The full reactor cooling system as a single Arcade model."""
    p = parameters or RCSParameters()
    model = ArcadeModel(name="reactor_cooling_system")
    pump_part = build_pump_subsystem(p)
    heat_part = build_heat_exchange_subsystem(p)
    for source in (pump_part, heat_part):
        for component in source.components.values():
            model.add_component(component)
        for unit in source.repair_units.values():
            model.add_repair_unit(unit)
    model.set_system_down(
        Or(
            [
                And([pump_line_down(1, p), pump_line_down(2, p)]),
                And([heat_exchange_unit_down(p), bypass_down(p)]),
            ]
        )
    )
    return model


# --------------------------------------------------------------------------- #
# composition orders and evaluators
# --------------------------------------------------------------------------- #
def pump_subsystem_groups(parameters: RCSParameters | None = None) -> list[list[str]]:
    """Subsystem decomposition of the pump subsystem for the composer."""
    p = parameters or RCSParameters()
    groups = [["P1", "P2", "P_rep"]]
    for line in (1, 2):
        group = []
        for name in pump_line_components(line, p):
            group.extend([name, f"{name}_rep"])
        groups.append(group)
    return groups


def heat_exchange_subsystem_groups(
    parameters: RCSParameters | None = None,
) -> list[list[str]]:
    """Subsystem decomposition of the heat-exchanger subsystem for the composer."""
    p = parameters or RCSParameters()
    unit_group = ["HX", "HX_rep", "FHX", "FHX_rep"]
    for index in range(p.valves_in_heat_exchange_unit):
        name = f"VHX{index + 1}"
        unit_group.extend([name, f"{name}_rep"])
    bypass_group = []
    for index in range(p.motor_driven_valves):
        name = f"MV{index + 1}"
        bypass_group.extend([name, f"{name}_rep"])
    return [unit_group, bypass_group]


def subsystem_order(
    translated: TranslatedModel, groups: list[list[str]]
) -> CompositionOrder:
    """Composition order for a subsystem, dropping absent blocks (no-repair runs)."""
    present = set(translated.blocks)
    filtered = [[name for name in group if name in present] for group in groups]
    return hierarchical_order(translated, [group for group in filtered if group])


def build_pump_evaluator(
    parameters: RCSParameters | None = None, *, reduction: str = "strong"
) -> ArcadeEvaluator:
    """Evaluator for the pump subsystem through the compositional pipeline."""
    model = build_pump_subsystem(parameters)
    evaluator = ArcadeEvaluator(model, reduction=reduction)
    evaluator.order = subsystem_order(
        evaluator.translated, pump_subsystem_groups(parameters)
    )
    return evaluator


def build_heat_exchange_evaluator(
    parameters: RCSParameters | None = None, *, reduction: str = "strong"
) -> ArcadeEvaluator:
    """Evaluator for the heat-exchanger subsystem through the compositional pipeline."""
    model = build_heat_exchange_subsystem(parameters)
    evaluator = ArcadeEvaluator(model, reduction=reduction)
    evaluator.order = subsystem_order(
        evaluator.translated, heat_exchange_subsystem_groups(parameters)
    )
    return evaluator


def build_rcs_modular_evaluator(
    parameters: RCSParameters | None = None,
    *,
    reduction: str = "strong",
    order: str = "hierarchical",
    cache="off",
    jobs: int = 1,
    state_budget: int | None = None,
) -> ModularEvaluator:
    """Modular evaluator of the full RCS (the paper's Section 5.2.2 analysis).

    ``order`` selects the composition-order policy applied to both subsystem
    evaluators: ``"hierarchical"`` (the paper's decomposition, default),
    ``"greedy"`` (the composer's signal-closing heuristic) or ``"auto"``
    (the planner of :mod:`repro.planner`).  ``cache`` (``"on"``/``"off"``
    or a shared :class:`~repro.composer.QuotientCache`) enables the
    isomorphism-aware quotient cache, shared across both subsystem
    evaluators — the two pump lines are isomorphic up to signal renaming.
    ``jobs`` must be 1 (see :func:`~repro.composer.require_serial`).
    """
    # perfbench/ passes jobs as 1; anything else is refused.
    require_serial(jobs)
    validate_order_choice(order)
    p = parameters or RCSParameters()
    subsystems = {
        "pumps": build_pump_subsystem(p),
        "heat_exchange": build_heat_exchange_subsystem(p),
    }
    orders: dict[str, CompositionOrder] = {}
    system_down = Or([Literal("pumps", None), Literal("heat_exchange", None)])
    evaluator = ModularEvaluator(
        subsystems, system_down, orders=orders, reduction=reduction, cache=cache,
        state_budget=state_budget,
    )
    if order == "hierarchical":
        evaluator.evaluators["pumps"].order = subsystem_order(
            evaluator.evaluators["pumps"].translated, pump_subsystem_groups(p)
        )
        evaluator.evaluators["heat_exchange"].order = subsystem_order(
            evaluator.evaluators["heat_exchange"].translated,
            heat_exchange_subsystem_groups(p),
        )
    elif order == "auto":
        evaluator.evaluators["pumps"].order = "auto"
        evaluator.evaluators["heat_exchange"].order = "auto"
    return evaluator


def rcs_parameters_from_values(values) -> RCSParameters:
    """Resolve a sweep axis-value assignment to :class:`RCSParameters`."""
    defaults = RCSParameters()
    return RCSParameters(
        pump_phase_rate=float(values.get("pump_phase_rate", defaults.pump_phase_rate)),
        valve_failure_rate=float(
            values.get("valve_failure_rate", defaults.valve_failure_rate)
        ),
        filter_failure_rate=float(
            values.get("filter_failure_rate", defaults.filter_failure_rate)
        ),
        heat_exchanger_failure_rate=float(
            values.get(
                "heat_exchanger_failure_rate", defaults.heat_exchanger_failure_rate
            )
        ),
        repair_rate=float(values.get("repair_rate", defaults.repair_rate)),
    )


def rcs_sweep_factory():
    """The flat RCS as a sweepable model family (:mod:`repro.sweep`).

    All five rates are sweep axes (and sensitivity-eligible).  The
    importance components are the ones the fault tree references with plain
    ``.down`` literals — mode-specific valve literals (stuck-closed) cannot
    be conditioned component-wise and are deliberately left out.
    """
    from ..sweep import SweepFactory

    defaults = RCSParameters()

    def build(values) -> ArcadeModel:
        return build_rcs_model(rcs_parameters_from_values(values))

    def order(translated: TranslatedModel, values) -> CompositionOrder:
        p = rcs_parameters_from_values(values)
        groups = pump_subsystem_groups(p) + heat_exchange_subsystem_groups(p)
        return subsystem_order(translated, groups)

    return SweepFactory(
        name="rcs",
        build=build,
        base={
            "pump_phase_rate": defaults.pump_phase_rate,
            "valve_failure_rate": defaults.valve_failure_rate,
            "filter_failure_rate": defaults.filter_failure_rate,
            "heat_exchanger_failure_rate": defaults.heat_exchanger_failure_rate,
            "repair_rate": defaults.repair_rate,
        },
        order=order,
        rate_axes=(
            "pump_phase_rate",
            "filter_failure_rate",
            "heat_exchanger_failure_rate",
            "repair_rate",
        ),
        importance_components=("P1", "HX", "FHX"),
    )


def main(argv: list[str] | None = None) -> None:
    """CLI: run the modular RCS analysis under a chosen reduction mode.

    ``python -m repro.casestudies.rcs --reduction branching`` reproduces the
    Section 5.2.2 numbers with the paper's actual CADP equivalence.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Reactor Cooling System case study (Section 5.2)"
    )
    parser.add_argument(
        "--reduction",
        choices=("strong", "weak", "branching"),
        default="strong",
        help="bisimulation variant applied between composition steps",
    )
    parser.add_argument(
        "--order",
        choices=ORDER_CHOICES,
        default="hierarchical",
        help="composition-order policy: the paper's hierarchical decomposition, "
        "the greedy signal-closing heuristic, or the cost-model-guided planner",
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off"),
        default="on",
        help="isomorphism-aware quotient cache, shared across both subsystem "
        "evaluators (the pump lines are isomorphic up to signal renaming)",
    )
    parser.add_argument(
        "--backend",
        choices=("compose", "simulate"),
        default="compose",
        help="compose: the paper's compositional-aggregation pipeline; "
        "simulate: RESTART rare-event simulation on the flat RCS model",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=256,
        help="simulation roots per batch (simulate backend only)",
    )
    parser.add_argument(
        "--rel-error",
        type=float,
        default=None,
        help="target relative CI half-width; keeps adding replication "
        "batches until reached (simulate backend only)",
    )
    parser.add_argument(
        "--sim-horizon",
        type=float,
        default=10_000.0,
        help="time horizon of each simulated trajectory, hours",
    )
    parser.add_argument(
        "--sim-seed",
        type=int,
        default=0,
        help="seed of the simulation RNG stream",
    )
    from ..telemetry import (
        add_observability_arguments,
        configure_logging,
        get_logger,
        telemetry_session,
    )
    from .sweep_cli import add_resilience_arguments, add_sweep_arguments, run_sweep_cli

    add_observability_arguments(parser)
    add_sweep_arguments(parser)
    add_resilience_arguments(parser)
    args = parser.parse_args(argv)
    configure_logging(args)
    log = get_logger("rcs")

    with telemetry_session("rcs", args, seeds={"sim_seed": args.sim_seed}):
        _run(args, log, run_sweep_cli)


def _run(args, log, run_sweep_cli) -> None:
    import time

    from ..ctmc import point_availability

    if args.sweep:
        run_sweep_cli(
            rcs_sweep_factory(),
            args,
            default_grid={
                "filter_failure_rate": [
                    FILTER_FAILURE_RATE / 2.0,
                    FILTER_FAILURE_RATE,
                    FILTER_FAILURE_RATE * 2.0,
                ],
                "repair_rate": [0.05, 0.1, 0.2],
            },
        )
        return

    if args.backend == "simulate":
        started = time.perf_counter()
        evaluator = ArcadeEvaluator(
            build_rcs_model(),
            backend="simulate",
            sim_seed=args.sim_seed,
            sim_horizon=args.sim_horizon,
            sim_replications=args.replications,
            sim_rel_error=args.rel_error,
        )
        unavailability = evaluator.unavailability()
        interval = evaluator.simulation_interval
        unreliability_50h = evaluator.unreliability(MISSION_TIME_HOURS)
        elapsed = time.perf_counter() - started
        log.info("RCS (flat model), backend=simulate (RESTART)")
        log.info("  long-run unavailability %.3e", unavailability)
        if interval is not None:
            log.info("  unavailability CI       %s", interval.describe())
        log.info("  unreliability (50 h)    %.3e", unreliability_50h)
        log.info("  wall-clock %.1fs", elapsed)
        return

    from ..composer import resolve_cache
    from .sweep_cli import load_cache_file, save_cache_file

    started = time.perf_counter()
    cache = resolve_cache(args.cache)
    load_cache_file(cache, args)
    modular = build_rcs_modular_evaluator(
        reduction=args.reduction,
        order=args.order,
        cache=cache if cache is not None else "off",
        state_budget=args.state_budget,
    )
    pumps = modular.evaluators["pumps"]
    heat = modular.evaluators["heat_exchange"]
    unavailability_50h = 1.0 - (
        point_availability(pumps.ctmc, MISSION_TIME_HOURS)
        * point_availability(heat.ctmc, MISSION_TIME_HOURS)
    )
    unreliability_50h = modular.unreliability(MISSION_TIME_HOURS)
    elapsed = time.perf_counter() - started
    log.info("RCS (modular), reduction=%s, order=%s", args.reduction, args.order)
    for name in ("pumps", "heat_exchange"):
        report = modular.evaluators[name].composed.plan_report
        if report is not None:
            log.info("  %s: %s", name, report.summary())
    if modular.cache is not None:
        summary = modular.cache.summary()
        log.info(
            "  cache: %s hits / %s misses (hit rate %.0f%%), saved %.2fs",
            summary["hits"],
            summary["misses"],
            100.0 * summary["hit_rate"],
            summary["saved_seconds"],
        )
    log.info(
        "  pump subsystem CTMC: %s states / %s transitions, unavailability %.6e",
        pumps.ctmc.num_states,
        pumps.ctmc.num_transitions,
        pumps.unavailability(),
    )
    log.info(
        "  heat-exchange CTMC:  %s states / %s transitions, unavailability %.6e",
        heat.ctmc.num_states,
        heat.ctmc.num_transitions,
        heat.unavailability(),
    )
    log.info("  unavailability (50 h) %.6e", unavailability_50h)
    log.info("  unreliability  (50 h) %.6e", unreliability_50h)
    log.info("  wall-clock %.1fs", elapsed)
    save_cache_file(cache, args)


if __name__ == "__main__":
    main()


__all__ = [
    "COMPONENT_REPAIR_RATE",
    "FILTER_FAILURE_RATE",
    "HEAT_EXCHANGER_FAILURE_RATE",
    "MISSION_TIME_HOURS",
    "ORDER_CHOICES",
    "PUMP_PHASE_RATE",
    "PUMP_REPAIR_PHASE_RATE",
    "RCSParameters",
    "STUCK_CLOSED",
    "STUCK_OPEN",
    "VALVE_FAILURE_RATE",
    "build_heat_exchange_evaluator",
    "build_heat_exchange_subsystem",
    "build_pump_evaluator",
    "build_pump_subsystem",
    "build_rcs_model",
    "build_rcs_modular_evaluator",
    "bypass_down",
    "heat_exchange_unit_down",
    "pump_line_components",
    "pump_line_down",
    "pump_subsystem_groups",
    "rcs_parameters_from_values",
    "rcs_sweep_factory",
    "subsystem_order",
]
