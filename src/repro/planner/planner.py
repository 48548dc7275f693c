"""The ``plan_order`` facade: automated composition-order planning.

``plan_order(translated)`` returns a ready-to-use
:class:`~repro.composer.CompositionOrder` for the composer, chosen by
cost-model-guided search (see :mod:`repro.planner.search`), together with a
:class:`PlanReport` describing what the search predicted and how much work
it did.  It is wired into the stack as ``Composer(order="auto")`` /
``compose_model(order="auto")`` and the ``--order auto`` flag of the
case-study CLIs, and is the entry point for ad-hoc models whose users have
no hierarchical decomposition at hand.

The pipeline: partition the non-gate blocks into affinity groups (the
connected components of the shared-signal graph), beam-search the group
chaining order — or, when the graph is one component, the flat leaf order —
against the cost model, race the signal-closing greedy heuristic as a seed,
refine the winner by simulated annealing over leaf permutations, and
materialise the result as a nested order through
:func:`repro.composer.hierarchical_order`, so the planned order gets the
same group-then-join structure (and earliest-hiding gate placement) as the
paper's hand-written decompositions.  The plan is a function of the model,
budget and seed alone; the composer's quotient cache plays no part in it.
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
    SearchResult,
    affinity_groups,
    anneal_order,
    beam_search,
    beam_search_groups,
    gate_tree_group_order,
    group_isomorphism_classes,
    order_group_by_cost,
    score_groups,
)

#: Default search budget, in candidate-order evaluations.  Sized so that
#: planning the 57-block DDS model costs well under 10% of its end-to-end
#: pipeline wall-clock.
DEFAULT_BUDGET = 240

#: Widest beam the budget heuristic will pick.
_MAX_BEAM_WIDTH = 8

#: The annealed order must undercut the structured candidate's predicted
#: peak by this factor to win (guards against plateau drift, see below).
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
    beam_width: int
    annealing_iterations: int
    improved_by_annealing: bool
    budget: int
    seed: int

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLIs)."""
        return (
            f"planned order: predicted peak {self.predicted_peak_states:,.0f} states "
            f"over {self.predicted_steps} steps, {self.num_groups} affinity groups, "
            f"{self.explored_candidates} candidates explored "
            f"(beam width {self.beam_width}, {self.annealing_iterations} annealing "
            f"iterations) in {self.wall_clock_seconds:.2f}s"
        )


def plan_order(
    translated: TranslatedModel,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    cost_model: CostModel | None = None,
) -> tuple[CompositionOrder, PlanReport]:
    """Search for a good composition order for ``translated``.

    Parameters
    ----------
    translated:
        The building-block I/O-IMCs (from
        :func:`repro.arcade.semantics.translate_model`).
    budget:
        Search effort in candidate-order evaluations.  Roughly 40% goes to
        the beam phase (as beam width), the rest to annealing iterations.
        Small budgets degrade gracefully: a budget of 1 evaluates only the
        beam with width 1, i.e. a pure greedy cost-model descent.
    seed:
        Seed of the annealing RNG; the whole search is deterministic for a
        fixed ``(translated, budget, seed)``.
    cost_model:
        Override the default :class:`CostModel` — pass one built with other
        :class:`~repro.planner.CostParameters` to plan with other damping
        factors.

    Returns
    -------
    The planned order — nested group-by-group, fault-tree gates placed by
    the earliest-hiding rule — and the :class:`PlanReport` for it.
    """
    if budget < 1:
        raise ValueError(f"plan_order budget must be >= 1, got {budget}")
    with telemetry_span("plan.order", budget=budget, seed=seed) as plan_span:
        order, report = _plan_order_impl(
            translated, budget=budget, seed=seed, cost_model=cost_model
        )
        plan_span.set(
            predicted_peak_states=report.predicted_peak_states,
            predicted_steps=report.predicted_steps,
            explored_candidates=report.explored_candidates,
            num_groups=report.num_groups,
            beam_width=report.beam_width,
            improved_by_annealing=report.improved_by_annealing,
        )
        return order, report


def _plan_order_impl(
    translated: TranslatedModel,
    *,
    budget: int,
    seed: int,
    cost_model: CostModel | None,
) -> tuple[CompositionOrder, PlanReport]:
    """The search itself (see :func:`plan_order`, the traced facade)."""
    started = time.perf_counter()
    model = cost_model if cost_model is not None else CostModel(translated)
    scheduler = GateScheduler(translated)
    num_leaves = max(len(scheduler.non_gate_blocks), 1)

    # Split the budget: the beam phase scores ~width * n / 2 full-order
    # equivalents; the rest buys annealing iterations.
    beam_width = max(1, min(_MAX_BEAM_WIDTH, round(0.4 * budget / (num_leaves / 2))))
    beam_equivalents = max(1, beam_width * num_leaves // 2)
    annealing_iterations = max(0, budget - beam_equivalents)

    groups = [
        order_group_by_cost(model, group) for group in affinity_groups(translated)
    ]
    if len(groups) > 1:
        # Isomorphic sibling groups (the replicated subsystems) collapse the
        # beam's branching: only one representative per class is tried at
        # every extension point, so planning effort grows linearly — not
        # factorially — with the replica count.
        iso_classes = group_isomorphism_classes(translated, groups)
        best, explored = beam_search_groups(
            model, scheduler, groups, width=beam_width, iso_classes=iso_classes
        )
        # Second candidate: chain the groups along a depth-first walk of the
        # fault tree (the structure of the paper's hand-written orders),
        # which the prefix-scored beam cannot discover — the gate interleaving
        # it buys only pays off deep in the chain.
        tree_groups = tuple(
            tuple(groups[index])
            for index in gate_tree_group_order(scheduler, groups)
        )
        tree_cost = score_groups(model, scheduler, tree_groups)
        explored += 1
        if (tree_cost.peak, tree_cost.total) < best.score:
            best = SearchResult(groups=tree_groups, cost=tree_cost, explored=explored)
    else:
        best, explored = beam_search(model, scheduler, width=beam_width)

    # The signal-closing greedy heuristic rides along as a seed candidate,
    # so the planned order is never worse than it under the cost model.
    from ..composer import Composer  # late import: composer lazily uses planner

    greedy_order = Composer(translated).default_order()
    greedy_groups = tuple(
        (name,) for name in greedy_order if name not in scheduler.gate_names
    )
    greedy_cost = score_groups(model, scheduler, greedy_groups)
    explored += 1
    if (greedy_cost.peak, greedy_cost.total) < best.score:
        best = SearchResult(groups=greedy_groups, cost=greedy_cost, explored=explored)

    beam_score = best.score
    if annealing_iterations > 0:
        rng = random.Random(seed)
        annealed, annealed_explored = anneal_order(
            model,
            scheduler,
            best.groups,
            iterations=annealing_iterations,
            rng=rng,
        )
        explored += annealed_explored
        # The cost model is a ranking device, not a measurement: near-ties
        # hide real differences (moving one block into an unrelated group can
        # look neutral while being disastrous in practice).  The annealed
        # order therefore only replaces the structured candidate when it
        # beats it by a real margin on the predicted peak.
        if annealed.cost.peak < _ANNEALING_MARGIN * best.cost.peak:
            best = annealed

    order = hierarchical_order(translated, [list(group) for group in best.groups])
    report = PlanReport(
        predicted_peak_states=best.cost.peak,
        predicted_total_states=best.cost.total,
        predicted_steps=best.cost.steps,
        explored_candidates=explored,
        wall_clock_seconds=time.perf_counter() - started,
        num_groups=len(best.groups),
        beam_width=beam_width,
        annealing_iterations=annealing_iterations,
        improved_by_annealing=best.score < beam_score,
        budget=budget,
        seed=seed,
    )
    return order, report


__all__ = ["DEFAULT_BUDGET", "PlanReport", "plan_order"]
