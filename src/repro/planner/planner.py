"""The ``plan_order`` facade: automated composition-order planning.

``plan_order(translated)`` returns a ready-to-use
:class:`~repro.composer.CompositionOrder` for the composer, chosen by
cost-model-guided search (see :mod:`repro.planner.search`), together with a
:class:`PlanReport` describing what the search predicted and how much work
it did.  It is wired into the stack as ``Composer(order="auto")`` /
``compose_model(order="auto")`` and the ``--order auto`` flag of the
case-study CLIs, and is the entry point for ad-hoc models whose users have
no hierarchical decomposition at hand.

The search has one path.  Partition the non-gate blocks into affinity
groups (the connected components of the shared-signal graph) and chain them
along a depth-first walk of the fault tree — or, when the graph is one
component, take the signal-closing greedy order's blocks one by one.  That
seed is refined by simulated annealing over leaf permutations against the
cost model, and the result is materialised as a nested order through
:func:`repro.composer.hierarchical_order`, so the planned order gets the
same group-then-join structure (and earliest-hiding gate placement) as the
paper's hand-written decompositions.  The plan is a function of the model
alone (the annealing budget and seed are fixed); the composer's quotient
cache plays no part in it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder, hierarchical_order
from ..composer.ordering import GateScheduler
from ..telemetry.trace import span as telemetry_span
from .costmodel import CostModel
from .search import (
    affinity_groups,
    anneal_order,
    gate_tree_group_order,
    score_groups,
)

#: Annealing budget, in candidate-order evaluations.  Sized so that
#: planning the 57-block DDS model costs well under 10% of its end-to-end
#: pipeline wall-clock.
BUDGET = 240

#: Seed of the annealing RNG: the whole search is deterministic per model.
SEED = 0

#: The annealed order must undercut the seed's predicted peak by this
#: factor to win (guards against plateau drift, see below).
_ANNEALING_MARGIN = 0.9


@dataclass(frozen=True)
class PlanReport:
    """What the planner predicted, explored and spent for one order."""

    predicted_peak_states: float
    predicted_total_states: float
    predicted_steps: int
    explored_candidates: int
    wall_clock_seconds: float
    num_groups: int
    annealing_iterations: int
    improved_by_annealing: bool

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLIs)."""
        return (
            f"planned order: predicted peak {self.predicted_peak_states:,.0f} states "
            f"over {self.predicted_steps} steps, {self.num_groups} affinity groups, "
            f"{self.explored_candidates} candidates explored "
            f"({self.annealing_iterations} annealing iterations) "
            f"in {self.wall_clock_seconds:.2f}s"
        )


def plan_order(translated: TranslatedModel) -> tuple[CompositionOrder, PlanReport]:
    """Search for a good composition order for ``translated``.

    ``translated`` holds the building-block I/O-IMCs (from
    :func:`repro.arcade.semantics.translate_model`).  Returns the planned
    order — nested group-by-group, fault-tree gates placed by the
    earliest-hiding rule — and the :class:`PlanReport` for it.  The search
    is deterministic: planning the same model twice gives the same order.
    """
    with telemetry_span("plan.order") as plan_span:
        order, report = _plan_order_impl(translated)
        plan_span.set(
            predicted_peak_states=report.predicted_peak_states,
            predicted_steps=report.predicted_steps,
            explored_candidates=report.explored_candidates,
            num_groups=report.num_groups,
            improved_by_annealing=report.improved_by_annealing,
        )
        return order, report


def _plan_order_impl(translated: TranslatedModel) -> tuple[CompositionOrder, PlanReport]:
    """The search itself (see :func:`plan_order`, the traced facade)."""
    started = time.perf_counter()
    model = CostModel(translated)
    scheduler = GateScheduler(translated)

    groups = affinity_groups(translated)
    if len(groups) > 1:
        seed = tuple(
            tuple(groups[index]) for index in gate_tree_group_order(scheduler, groups)
        )
    else:
        from ..composer import Composer  # late import: composer lazily uses planner

        seed = tuple(
            (name,)
            for name in Composer(translated).default_order()
            if name not in scheduler.gate_names
        )
    seed_cost = score_groups(model, scheduler, seed)

    annealed = anneal_order(
        model, scheduler, seed, iterations=BUDGET, rng=random.Random(SEED)
    )
    # The cost model is a ranking device, not a measurement: near-ties hide
    # real differences (moving one block into an unrelated group can look
    # neutral while being disastrous in practice).  The annealed order
    # therefore only replaces the seed when it beats it by a real margin on
    # the predicted peak.
    improved = annealed.cost.peak < _ANNEALING_MARGIN * seed_cost.peak
    groups_chosen, cost = (annealed.groups, annealed.cost) if improved else (seed, seed_cost)

    order = hierarchical_order(translated, [list(group) for group in groups_chosen])
    report = PlanReport(
        predicted_peak_states=cost.peak,
        predicted_total_states=cost.total,
        predicted_steps=cost.steps,
        explored_candidates=1 + annealed.explored,
        wall_clock_seconds=time.perf_counter() - started,
        num_groups=len(groups_chosen),
        annealing_iterations=BUDGET,
        improved_by_annealing=improved,
    )
    return order, report


__all__ = ["PlanReport", "plan_order"]
