"""Property-based tests of cross-cutting invariants (hypothesis).

These tests generate random small Arcade models and random fault-tree
expressions and check that independently implemented parts of the library
agree with each other:

* the compositional I/O-IMC pipeline against the modular/combinatorial
  evaluation,
* the gate semantics against direct boolean evaluation,
* lumping against the unreduced chain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Exponential
from repro.analysis import ArcadeEvaluator
from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    down,
    k_of_n,
)
from repro.arcade.expressions import And, Expression, Literal, Or
from repro.arcade.semantics.bc_semantics import evaluate_expression
from repro.baselines import StaticFaultTreeAnalyzer
from repro.ctmc import lump, steady_state_distribution


# --------------------------------------------------------------------------- #
# random expressions over a fixed set of components
# --------------------------------------------------------------------------- #
COMPONENTS = ["c1", "c2", "c3", "c4"]


def expression_strategy(depth: int = 2) -> st.SearchStrategy[Expression]:
    literal = st.sampled_from(COMPONENTS).map(lambda name: Literal(name, None))
    if depth == 0:
        return literal
    child = expression_strategy(depth - 1)
    return st.one_of(
        literal,
        st.lists(child, min_size=2, max_size=3).map(And),
        st.lists(child, min_size=2, max_size=3).map(Or),
    )


@settings(max_examples=30, deadline=None)
@given(expression=expression_strategy(), assignment=st.tuples(*[st.booleans()] * 4))
def test_expression_evaluation_agrees_with_python_semantics(expression, assignment):
    """The recursive evaluator agrees with a direct truth-table evaluation."""
    values = {Literal(name, None): value for name, value in zip(COMPONENTS, assignment)}

    def brute(node: Expression) -> bool:
        if isinstance(node, Literal):
            return values[Literal(node.component, None)]
        if isinstance(node, And):
            return all(brute(child) for child in node.children)
        if isinstance(node, Or):
            return any(brute(child) for child in node.children)
        raise AssertionError

    assert evaluate_expression(expression, values) == brute(expression)


# --------------------------------------------------------------------------- #
# random small repairable systems: pipeline vs combinatorics
# --------------------------------------------------------------------------- #
@settings(max_examples=12, deadline=None)
@given(
    failure_rates=st.lists(
        st.floats(min_value=1e-4, max_value=0.05), min_size=2, max_size=3
    ),
    k=st.integers(min_value=1, max_value=3),
    mission=st.floats(min_value=10.0, max_value=500.0),
)
def test_pipeline_reliability_matches_combinatorial(failure_rates, k, mission):
    """Without repair, the I/O-IMC pipeline equals the exact combinatorial result."""
    k = min(k, len(failure_rates))
    model = ArcadeModel(name="random_system")
    names = []
    for index, rate in enumerate(failure_rates):
        name = f"c{index}"
        names.append(name)
        model.add_component(
            BasicComponent(name, Exponential(rate), time_to_repairs=Exponential(1.0))
        )
        model.add_repair_unit(RepairUnit(f"{name}_rep", [name], RepairStrategy.DEDICATED))
    model.set_system_down(k_of_n(k, [down(name) for name in names]))

    evaluator = ArcadeEvaluator(model)
    analyzer = StaticFaultTreeAnalyzer(model)
    assert evaluator.reliability(mission, assume_no_repair=True) == pytest.approx(
        analyzer.reliability(mission), rel=1e-6, abs=1e-12
    )


@settings(max_examples=10, deadline=None)
@given(
    failure=st.floats(min_value=1e-3, max_value=0.1),
    repair=st.floats(min_value=0.5, max_value=5.0),
    replicas=st.integers(min_value=2, max_value=3),
)
def test_pipeline_availability_matches_birth_death(failure, repair, replicas):
    """An n-replica parallel system with dedicated repair is a known birth-death chain."""
    model = ArcadeModel(name="parallel")
    names = []
    for index in range(replicas):
        name = f"r{index}"
        names.append(name)
        model.add_component(
            BasicComponent(name, Exponential(failure), time_to_repairs=Exponential(repair))
        )
        model.add_repair_unit(RepairUnit(f"{name}_rep", [name], RepairStrategy.DEDICATED))
    model.set_system_down(And([down(name) for name in names]))
    evaluator = ArcadeEvaluator(model)
    # With dedicated repair the components are independent two-state chains.
    single_unavailability = failure / (failure + repair)
    expected = 1.0 - single_unavailability**replicas
    assert evaluator.availability() == pytest.approx(expected, rel=1e-9)


# --------------------------------------------------------------------------- #
# lumping invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.05, max_value=4.0),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=2,
        max_size=15,
    ),
    down_state=st.integers(min_value=0, max_value=4),
)
def test_lumping_preserves_steady_state_mass(data, down_state):
    """Ordinary lumping never changes the probability of the labelled states."""
    from repro.ctmc import CTMC

    transitions = [(s, r, t) for s, r, t in data if s != t]
    chain = CTMC(5, transitions, labels={down_state: frozenset({"down"})})
    lumped = lump(chain).quotient
    original = steady_state_distribution(chain)
    original_down = sum(original[s] for s in chain.states_with_label("down"))
    reduced = steady_state_distribution(lumped)
    reduced_down = sum(reduced[s] for s in lumped.states_with_label("down"))
    assert reduced_down == pytest.approx(original_down, abs=1e-9)
    assert lumped.num_states <= chain.num_states


@settings(max_examples=10, deadline=None)
@given(
    failure=st.floats(min_value=1e-3, max_value=0.05),
    mission=st.floats(min_value=1.0, max_value=200.0),
)
def test_reliability_bounded_and_monotone(failure, mission):
    """System reliability lies in [0, 1] and decreases with the mission time."""
    model = ArcadeModel(name="single")
    model.add_component(BasicComponent("c", Exponential(failure)))
    model.set_system_down(down("c"))
    evaluator = ArcadeEvaluator(model)
    early = evaluator.reliability(mission, assume_no_repair=True)
    late = evaluator.reliability(mission * 2, assume_no_repair=True)
    assert 0.0 <= late <= early <= 1.0
