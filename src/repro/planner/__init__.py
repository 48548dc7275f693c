"""Composition-order planning: cost-model-guided search over aggregation orders.

In the paper the composition order is "given by the user" (Section 4), and
choosing it well is exactly what makes compositional aggregation beat the
flat state space.  This package automates the choice for users who cannot
hand-craft a hierarchical decomposition:

* :mod:`repro.planner.costmodel` — a fast static estimator of the
  intermediate state-space sizes a candidate (nested) order will produce;
* :mod:`repro.planner.search` — the seed order (affinity groups chained
  along a depth-first walk of the fault tree) and a seeded
  simulated-annealing refiner over leaf permutations that scores candidates
  through the cost model, with fault-tree gates placed by the
  earliest-hiding rule of :class:`repro.composer.GateScheduler`;
* :mod:`repro.planner.planner` — the :func:`plan_order` facade, wired into
  the stack as ``Composer(order="auto")`` / ``compose_model(order="auto")``
  and the ``--order auto`` flag of the case-study CLIs.

A plan reads the translated model and nothing else — in particular not the
composer's quotient cache — so ``order="auto"`` composes one order per
model, with the cache on or off.
"""

from .costmodel import CostModel, CostState
from .planner import PlanReport, plan_order
from .search import (
    SearchResult,
    affinity_groups,
    anneal_order,
    gate_tree_group_order,
)

__all__ = [
    "CostModel",
    "CostState",
    "PlanReport",
    "SearchResult",
    "affinity_groups",
    "anneal_order",
    "gate_tree_group_order",
    "plan_order",
]
