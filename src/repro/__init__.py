"""Arcade: architectural dependability evaluation.

A from-scratch, open-source reproduction of

    H. Boudali, P. Crouzen, B. R. Haverkort, M. Kuntz, M. I. A. Stoelinga,
    "Architectural dependability evaluation with Arcade", DSN 2008.

The package layout mirrors the paper's pipeline:

* :mod:`repro.arcade` — the Arcade modelling language (basic components,
  repair units, spare management units, fault-tree failure criteria, textual
  syntax) and its I/O-IMC semantics;
* :mod:`repro.ioimc` — Input/Output Interactive Markov Chains, parallel
  composition and hiding;
* :mod:`repro.lumping` — bisimulation minimisation and structural reductions;
* :mod:`repro.composer` — compositional aggregation;
* :mod:`repro.ctmc` — labelled CTMCs and their steady-state, transient and
  absorbing analysis;
* :mod:`repro.analysis` — the end-to-end :class:`~repro.analysis.ArcadeEvaluator`;
* :mod:`repro.distributions` — phase-type time-to-failure/repair distributions;
* :mod:`repro.baselines` — the comparison points of Table 1 (a GSPN/SAN-style
  flat model, a Galileo-style no-repair fault-tree evaluator) and a
  non-compositional generator;
* :mod:`repro.simulation` — a discrete-event Monte-Carlo cross-check;
* :mod:`repro.casestudies` — the distributed database system and the reactor
  cooling system of Section 5.

Quickstart::

    from repro import quickstart_model
    from repro.analysis import ArcadeEvaluator

    model = quickstart_model()
    evaluator = ArcadeEvaluator(model)
    print(evaluator.availability(), evaluator.reliability(1000.0))
"""

from .analysis import ArcadeEvaluator, EvaluationReport
from .arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    down,
    k_of_n,
    parse_expression,
    spare_group,
)
from .distributions import Erlang, Exponential, HyperExponential, PhaseType

__version__ = "1.0.0"


def quickstart_model() -> ArcadeModel:
    """A tiny two-processor example (the paper's Section 3.4 illustration).

    Two redundant processors, each with its own dedicated repair unit; the
    system is down when both processors are down.
    """
    model = ArcadeModel(name="two_redundant_processors")
    for name in ("proc_a", "proc_b"):
        model.add_component(
            BasicComponent(
                name,
                time_to_failures=Exponential(1.0 / 2000.0),
                time_to_repairs=Exponential(1.0),
            )
        )
        model.add_repair_unit(RepairUnit(f"{name}.rep", [name], RepairStrategy.DEDICATED))
    model.set_system_down(down("proc_a") & down("proc_b"))
    return model


__all__ = [
    "ArcadeEvaluator",
    "ArcadeModel",
    "BasicComponent",
    "Erlang",
    "EvaluationReport",
    "Exponential",
    "HyperExponential",
    "PhaseType",
    "RepairStrategy",
    "RepairUnit",
    "SpareManagementUnit",
    "down",
    "k_of_n",
    "parse_expression",
    "quickstart_model",
    "spare_group",
    "__version__",
]
