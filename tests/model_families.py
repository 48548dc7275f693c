"""Parametric model families beside the paper's two case studies.

The paper's evaluation is built around two fixed case studies; the
generators below produce families of Arcade models that vary size and
design parameters (number of redundant components, repair strategy), which
the tests use to compare the compositional pipeline with the flat and
simulation baselines.
"""

from __future__ import annotations

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    down,
    k_of_n,
)
from repro.arcade.expressions import And, Expression, Or
from repro.distributions import Exponential


def redundant_array_model(
    num_components: int,
    failures_to_break: int,
    *,
    failure_rate: float = 1e-3,
    repair_rate: float = 1.0,
    strategy: RepairStrategy = RepairStrategy.FCFS,
    shared_repair: bool = True,
    priorities: list[int] | None = None,
    name: str = "redundant_array",
    component_prefix: str | None = None,
) -> ArcadeModel:
    """A ``k``-out-of-``n``-failed array of identical repairable components.

    The system fails when at least ``failures_to_break`` of the
    ``num_components`` components are down simultaneously.  Repair is either
    a single shared unit with the given strategy or one dedicated unit per
    component.  ``component_prefix`` (default: the model name) keeps component
    names unique when several arrays are combined in a modular evaluation.
    """
    prefix = component_prefix if component_prefix is not None else name
    model = ArcadeModel(name=f"{name}_{failures_to_break}_of_{num_components}")
    names = []
    for index in range(num_components):
        component = f"{prefix}_unit_{index + 1}"
        names.append(component)
        model.add_component(
            BasicComponent(
                component,
                time_to_failures=Exponential(failure_rate),
                time_to_repairs=Exponential(repair_rate),
            )
        )
    if shared_repair:
        model.add_repair_unit(
            RepairUnit("shared_rep", names, strategy, priorities=priorities)
        )
    else:
        for component in names:
            model.add_repair_unit(
                RepairUnit(f"{component}_rep", [component], RepairStrategy.DEDICATED)
            )
    model.set_system_down(k_of_n(failures_to_break, [down(component) for component in names]))
    return model


def series_of_parallel_model(
    num_stages: int,
    redundancy: int,
    *,
    failure_rate: float = 1e-3,
    repair_rate: float = 0.5,
    name: str = "series_of_parallel",
) -> ArcadeModel:
    """A series system of ``num_stages`` stages, each ``redundancy``-way parallel.

    Stage ``i`` fails when all of its replicas are down; the system fails as
    soon as any stage fails.  Each stage has its own FCFS repair unit.  The
    family scales both the number of building blocks and the depth of the
    fault tree, which makes it a good stress test for the composer.
    """
    model = ArcadeModel(name=f"{name}_{num_stages}x{redundancy}")
    stage_expressions: list[Expression] = []
    for stage in range(num_stages):
        replicas = []
        for replica in range(redundancy):
            component = f"s{stage + 1}_r{replica + 1}"
            replicas.append(component)
            model.add_component(
                BasicComponent(
                    component,
                    time_to_failures=Exponential(failure_rate),
                    time_to_repairs=Exponential(repair_rate),
                )
            )
        model.add_repair_unit(
            RepairUnit(f"stage_{stage + 1}_rep", replicas, RepairStrategy.FCFS)
        )
        stage_expressions.append(And([down(component) for component in replicas]))
    model.set_system_down(Or(stage_expressions))
    return model


def series_of_parallel_groups(num_stages: int, redundancy: int) -> list[list[str]]:
    """Subsystem decomposition matching :func:`series_of_parallel_model`."""
    groups = []
    for stage in range(num_stages):
        group = [f"s{stage + 1}_r{replica + 1}" for replica in range(redundancy)]
        group.append(f"stage_{stage + 1}_rep")
        groups.append(group)
    return groups


def fdep_chain_model(
    chain_length: int,
    *,
    failure_rate: float = 1e-3,
    repair_rate: float = 1.0,
    name: str = "fdep_chain",
) -> ArcadeModel:
    """A chain of destructive functional dependencies (Fig. 3 exercised at scale).

    Component ``i`` is destroyed whenever component ``i-1`` fails; the first
    component only fails inherently.  The system is down when the last
    component of the chain is down.
    """
    model = ArcadeModel(name=f"{name}_{chain_length}")
    previous: str | None = None
    for index in range(chain_length):
        component = f"link_{index + 1}"
        model.add_component(
            BasicComponent(
                component,
                time_to_failures=Exponential(failure_rate),
                time_to_repairs=Exponential(repair_rate),
                time_to_repair_df=Exponential(repair_rate),
                destructive_fdep=down(previous) if previous is not None else None,
            )
        )
        model.add_repair_unit(
            RepairUnit(f"link_{index + 1}_rep", [component], RepairStrategy.DEDICATED)
        )
        previous = component
    model.set_system_down(down(f"link_{chain_length}"))
    return model


__all__ = [
    "fdep_chain_model",
    "redundant_array_model",
    "series_of_parallel_groups",
    "series_of_parallel_model",
]
