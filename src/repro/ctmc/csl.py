"""A CSL-style property checker for labelled CTMCs.

Section 6 of the paper lists "CSL-type expressions" as future work for
querying measures beyond plain availability and reliability.  This module
provides that extension: a small continuous stochastic logic with

* atomic propositions (state labels),
* boolean connectives,
* the steady-state operator ``S_{~p}(phi)``,
* the time-bounded probability operator ``P_{~p}(phi U^{<=t} psi)`` and its
  unbounded variant, and
* ``P_{~p}(F^{<=t} phi)`` / ``P_{~p}(G^{<=t} phi)`` as derived forms.

The checker returns the *satisfaction set* of a formula and, for the
quantitative operators, the underlying probability values, so it can be used
both for verification ("is the unavailability below 1e-6?") and for
measurement ("what is the probability of failure within 50 hours?").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import AnalysisError
from .absorbing import make_absorbing
from .ctmc import CTMC
from .steady_state import steady_state_distribution
from .transient import transient_distribution


class Formula:
    """Base class of CSL state formulas."""


@dataclass(frozen=True)
class Atomic(Formula):
    """An atomic proposition (a state label such as ``"down"``)."""

    label: str


@dataclass(frozen=True)
class TrueFormula(Formula):
    """The formula satisfied by every state."""


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class SteadyState(Formula):
    """``S_{~p}(operand)``: the long-run probability of ``operand`` obeys the bound."""

    comparison: str
    bound: float
    operand: Formula


@dataclass(frozen=True)
class ProbabilisticUntil(Formula):
    """``P_{~p}(left U^{<=time} right)`` (``time=None`` means unbounded)."""

    comparison: str
    bound: float
    left: Formula
    right: Formula
    time: float | None = None


def eventually(comparison: str, bound: float, operand: Formula, time: float | None = None):
    """``P_{~p}(F^{<=t} operand)`` expressed as an until formula."""
    return ProbabilisticUntil(comparison, bound, TrueFormula(), operand, time)


def globally(comparison: str, bound: float, operand: Formula, time: float | None = None):
    """``P_{~p}(G^{<=t} operand)`` via the duality ``G phi = not F not phi``."""
    dual_comparison = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[comparison]
    return Not(eventually(dual_comparison, 1.0 - bound, Not(operand), time))


_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class CSLChecker:
    """Model checker for the CSL fragment above on a labelled CTMC."""

    def __init__(self, ctmc: CTMC) -> None:
        self.ctmc = ctmc

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def satisfaction_set(self, formula: Formula) -> set[int]:
        """States of the chain satisfying ``formula``."""
        return self._check(formula)

    def holds_initially(self, formula: Formula) -> bool:
        """Whether the formula holds in (every state of positive mass of) the initial distribution."""
        satisfied = self._check(formula)
        initial_states = np.flatnonzero(self.ctmc.initial_distribution > 0)
        return all(int(state) in satisfied for state in initial_states)

    def until_probabilities(
        self, left: Formula, right: Formula, time: float | None
    ) -> np.ndarray:
        """Per-state probability of ``left U^{<=time} right``."""
        left_set = self._check(left)
        right_set = self._check(right)
        return self._until(left_set, right_set, time)

    def steady_state_probability(self, operand: Formula) -> float:
        """Long-run probability of being in a state satisfying ``operand``."""
        states = self._check(operand)
        distribution = steady_state_distribution(self.ctmc)
        return float(sum(distribution[state] for state in states))

    # ------------------------------------------------------------------ #
    # recursive evaluation
    # ------------------------------------------------------------------ #
    def _check(self, formula: Formula) -> set[int]:
        if isinstance(formula, TrueFormula):
            return set(range(self.ctmc.num_states))
        if isinstance(formula, Atomic):
            return set(self.ctmc.states_with_label(formula.label))
        if isinstance(formula, Not):
            return set(range(self.ctmc.num_states)) - self._check(formula.operand)
        if isinstance(formula, And):
            return self._check(formula.left) & self._check(formula.right)
        if isinstance(formula, Or):
            return self._check(formula.left) | self._check(formula.right)
        if isinstance(formula, SteadyState):
            probability = self.steady_state_probability(formula.operand)
            comparator = _COMPARATORS[formula.comparison]
            if comparator(probability, formula.bound):
                return set(range(self.ctmc.num_states))
            return set()
        if isinstance(formula, ProbabilisticUntil):
            probabilities = self.until_probabilities(formula.left, formula.right, formula.time)
            comparator = _COMPARATORS[formula.comparison]
            return {
                state
                for state in range(self.ctmc.num_states)
                if comparator(float(probabilities[state]), formula.bound)
            }
        raise AnalysisError(f"unknown CSL formula {formula!r}")

    def _until(self, left: set[int], right: set[int], time: float | None) -> np.ndarray:
        """Probability of reaching ``right`` through ``left`` states (per state)."""
        # Standard construction: make right-states absorbing (success) and
        # states satisfying neither operand absorbing (failure), then ask for
        # the transient/limit probability of sitting in a right-state.
        bad = set(range(self.ctmc.num_states)) - left - right
        modified = make_absorbing(self.ctmc, right | bad)
        probabilities = np.zeros(self.ctmc.num_states)
        if time is None:
            horizon = self._unbounded_horizon(modified)
        else:
            horizon = time
        for state in range(self.ctmc.num_states):
            if state in right:
                probabilities[state] = 1.0
                continue
            if state in bad:
                probabilities[state] = 0.0
                continue
            point = np.zeros(self.ctmc.num_states)
            point[state] = 1.0
            at_time = transient_distribution(modified, horizon, initial=point)
            probabilities[state] = float(sum(at_time[target] for target in right))
        return probabilities

    @staticmethod
    def _unbounded_horizon(ctmc: CTMC) -> float:
        """A pragmatic horizon approximating the unbounded until.

        The absorbing chain converges geometrically; a horizon of many times
        the slowest expected holding time gives probabilities accurate far
        beyond the tolerances used in the tests.
        """
        _, rates, _ = ctmc.edge_arrays()
        if not len(rates):
            return 1.0
        return 200.0 / float(rates.min())


__all__ = [
    "Atomic",
    "And",
    "CSLChecker",
    "Formula",
    "Not",
    "Or",
    "ProbabilisticUntil",
    "SteadyState",
    "TrueFormula",
    "eventually",
    "globally",
]
