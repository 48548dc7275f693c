"""Modular (divide-and-conquer) evaluation of independent subsystems.

Section 5.2.2 of the paper analyses the reactor cooling system with "the
technique of modularization [7]": the CTMCs of the pump subsystem and of the
heat-exchanger subsystem are generated and solved *separately*, and the
system-level measures are obtained by combining the subsystem measures
through the fault-tree structure.  This is exact whenever the subsystems
share no components, repair units or dependencies, because the subsystems
are then stochastically independent.

:class:`ModularEvaluator` implements that technique on top of
:class:`~repro.analysis.evaluator.ArcadeEvaluator`: each subsystem is an
independent Arcade model with its own ``SYSTEM DOWN`` criterion, and the
system failure condition is a boolean expression over subsystem failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..arcade.expressions import And, Expression, KOutOfN, Literal, Or
from ..arcade.model import ArcadeModel
from ..composer import CompositionOrder
from ..errors import AnalysisError, ModelError
from .evaluator import ArcadeEvaluator


@dataclass(frozen=True)
class SubsystemResult:
    """Measures of one subsystem, as produced during a modular evaluation."""

    name: str
    unavailability: float
    unreliability: float | None
    ctmc_states: int
    ctmc_transitions: int
    largest_intermediate_states: int
    largest_intermediate_transitions: int


class ModularEvaluator:
    """Evaluate a system composed of stochastically independent subsystems."""

    def __init__(
        self,
        subsystems: dict[str, ArcadeModel],
        system_down: Expression,
        *,
        orders: dict[str, CompositionOrder] | None = None,
        reduction: str = "strong",
        cache=None,
        state_budget: int | None = None,
    ) -> None:
        if not subsystems:
            raise ModelError("a modular evaluation needs at least one subsystem")
        self.subsystems = dict(subsystems)
        self.system_down = system_down
        self.orders = dict(orders or {})
        self.reduction = reduction
        from ..composer import resolve_cache

        #: One quotient cache shared across every subsystem evaluator —
        #: replicated structures recur *between* subsystems as well (the RCS
        #: pump lines), so the sharing compounds (``None`` = caching off).
        self.cache = resolve_cache(cache)
        #: Per-step state-budget ceiling forwarded to every subsystem
        #: evaluator.
        self.state_budget = state_budget
        self._check_independence()
        for literal in system_down.atoms():
            if literal.component not in self.subsystems:
                raise ModelError(
                    f"system failure expression references unknown subsystem "
                    f"{literal.component!r}"
                )
        self.evaluators = {
            name: ArcadeEvaluator(
                model,
                order=self.orders.get(name),
                reduction=reduction,
                cache=self.cache,
                state_budget=state_budget,
            )
            for name, model in self.subsystems.items()
        }

    def _check_independence(self) -> None:
        seen: dict[str, str] = {}
        for name, model in self.subsystems.items():
            for component in model.components:
                if component in seen:
                    raise ModelError(
                        f"component {component!r} appears in subsystems "
                        f"{seen[component]!r} and {name!r}; modular evaluation requires "
                        "disjoint (independent) subsystems"
                    )
                seen[component] = name

    # ------------------------------------------------------------------ #
    # measures
    # ------------------------------------------------------------------ #
    def unavailability(self) -> float:
        """Steady-state system unavailability."""
        probabilities = {
            name: evaluator.unavailability() for name, evaluator in self.evaluators.items()
        }
        return self._probability_of_expression(probabilities)

    def availability(self) -> float:
        """Steady-state system availability."""
        return 1.0 - self.unavailability()

    def unreliability(self, mission_time: float, *, assume_no_repair: bool = False) -> float:
        """Probability of system failure within ``mission_time``.

        Note that combining subsystem *first-passage* probabilities through
        the fault-tree structure is exact for coherent structure functions of
        independent subsystems, which covers every expression expressible in
        Arcade (no negations).
        """
        probabilities = {
            name: evaluator.unreliability(mission_time, assume_no_repair=assume_no_repair)
            for name, evaluator in self.evaluators.items()
        }
        return self._probability_of_expression(probabilities)

    def reliability(self, mission_time: float, *, assume_no_repair: bool = False) -> float:
        """Probability of no system failure within ``mission_time``."""
        return 1.0 - self.unreliability(mission_time, assume_no_repair=assume_no_repair)

    def subsystem_results(self, mission_time: float | None = None) -> list[SubsystemResult]:
        """Per-subsystem measures (the rows reported in Section 5.2.2)."""
        results = []
        for name, evaluator in self.evaluators.items():
            statistics = evaluator.composed.statistics
            results.append(
                SubsystemResult(
                    name=name,
                    unavailability=evaluator.unavailability(),
                    unreliability=(
                        evaluator.unreliability(mission_time, assume_no_repair=False)
                        if mission_time is not None
                        else None
                    ),
                    ctmc_states=evaluator.ctmc.num_states,
                    ctmc_transitions=evaluator.ctmc.num_transitions,
                    largest_intermediate_states=statistics.largest_intermediate_states,
                    largest_intermediate_transitions=statistics.largest_intermediate_transitions,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # probability of a boolean expression over independent events
    # ------------------------------------------------------------------ #
    def _probability_of_expression(self, probabilities: dict[str, float]) -> float:
        literals = sorted({literal.component for literal in self.system_down.atoms()})
        if len(literals) <= 16:
            return _probability_by_enumeration(self.system_down, literals, probabilities)
        return _probability_structural(self.system_down, probabilities)


def _probability_by_enumeration(
    expression: Expression, literals: list[str], probabilities: dict[str, float]
) -> float:
    """Exact probability by summing over all truth assignments (small N)."""
    total = 0.0
    for assignment in itertools.product((False, True), repeat=len(literals)):
        values = dict(zip(literals, assignment))
        weight = 1.0
        for name, value in values.items():
            weight *= probabilities[name] if value else (1.0 - probabilities[name])
        if weight == 0.0:
            continue
        if _evaluate(expression, values):
            total += weight
    return total


def _probability_structural(
    expression: Expression, probabilities: dict[str, float]
) -> float:
    """Structural bottom-up probability (requires each literal to occur once)."""
    seen: set[str] = set()
    for literal in expression.atoms():
        if literal.component in seen:
            raise AnalysisError(
                "structural probability evaluation requires every subsystem to occur "
                f"at most once in the expression; {literal.component!r} repeats"
            )
        seen.add(literal.component)

    def recurse(node: Expression) -> float:
        if isinstance(node, Literal):
            return probabilities[node.component]
        if isinstance(node, And):
            result = 1.0
            for child in node.children:
                result *= recurse(child)
            return result
        if isinstance(node, Or):
            result = 1.0
            for child in node.children:
                result *= 1.0 - recurse(child)
            return 1.0 - result
        if isinstance(node, KOutOfN):
            child_probabilities = [recurse(child) for child in node.children]
            return _k_out_of_n_probability(node.k, child_probabilities)
        raise AnalysisError(f"unknown expression node {node!r}")

    return recurse(expression)


def _k_out_of_n_probability(k: int, probabilities: list[float]) -> float:
    """Probability that at least ``k`` of the independent events occur."""
    # Dynamic programming over the Poisson-binomial distribution.
    counts = [1.0] + [0.0] * len(probabilities)
    for probability in probabilities:
        for already in range(len(probabilities), 0, -1):
            counts[already] = counts[already] * (1 - probability) + counts[already - 1] * probability
        counts[0] *= 1 - probability
    return sum(counts[k:])


def _evaluate(expression: Expression, values: dict[str, bool]) -> bool:
    if isinstance(expression, Literal):
        return values[expression.component]
    if isinstance(expression, And):
        return all(_evaluate(child, values) for child in expression.children)
    if isinstance(expression, Or):
        return any(_evaluate(child, values) for child in expression.children)
    if isinstance(expression, KOutOfN):
        return sum(1 for child in expression.children if _evaluate(child, values)) >= expression.k
    raise AnalysisError(f"unknown expression node {expression!r}")


__all__ = ["ModularEvaluator", "SubsystemResult"]
