"""Tests for bisimulation minimisation and the structural reductions."""

import pytest

from lumping_oracle import from_keys, refine

from repro.ctmc import extract_ctmc, steady_state_availability
from repro.errors import LumpingError
from repro.ioimc import IOIMCBuilder, Signature, hide
from repro.lumping import (
    eliminate_vanishing_chains,
    maximal_progress_cut,
    minimize_branching,
    minimize_strong,
    minimize_weak,
    strong_bisimulation_partition,
    weak_bisimulation_partition,
)


def symmetric_pair():
    """Two interleaved identical Markovian transitions (a diamond)."""
    builder = IOIMCBuilder("diamond", Signature.create())
    builder.state("both_up", initial=True)
    builder.markovian("both_up", 0.5, "a_down")
    builder.markovian("both_up", 0.5, "b_down")
    builder.markovian("a_down", 0.5, "both_down")
    builder.markovian("b_down", 0.5, "both_down")
    builder.label("both_down", "down")
    return builder.build()


class TestStrongBisimulation:
    def test_symmetric_states_merge(self):
        result = minimize_strong(symmetric_pair())
        assert result.quotient.num_states == 3
        assert result.reduction_factor == pytest.approx(4 / 3)

    def test_rates_into_merged_block_are_summed(self):
        quotient = minimize_strong(symmetric_pair()).quotient
        initial = quotient.initial
        assert quotient.exit_rate(initial) == pytest.approx(1.0)

    def test_labels_prevent_merging(self):
        builder = IOIMCBuilder("labelled", Signature.create())
        builder.state("a", initial=True, labels={"down"})
        builder.state("b")
        builder.markovian("a", 1.0, "b")
        builder.markovian("b", 1.0, "a")
        # Without their labels the two states would be bisimilar.
        assert minimize_strong(builder.build()).quotient.num_states == 2

    def test_distinct_rates_not_merged(self):
        builder = IOIMCBuilder("rates", Signature.create())
        builder.state("s", initial=True)
        builder.markovian("s", 1.0, "a")
        builder.markovian("s", 2.0, "b")
        builder.markovian("a", 5.0, "s")
        builder.markovian("b", 7.0, "s")
        result = minimize_strong(builder.build())
        assert result.quotient.num_states == 3

    def test_interactive_signature_considered(self):
        signature = Signature.create(outputs={"x", "y"})
        builder = IOIMCBuilder("io", signature)
        builder.state("s", initial=True)
        builder.interactive("s", "x", "a")
        builder.interactive("s", "y", "b")
        builder.interactive("a", "x", "s")
        builder.interactive("b", "y", "s")
        partition = strong_bisimulation_partition(builder.build())
        assert partition.num_blocks == 3

    def test_measure_preservation_on_composed_model(self):
        """Minimising before CTMC extraction does not change availability."""
        machine = IOIMCBuilder("m", Signature.create(outputs={"f", "r"}))
        machine.state("up", initial=True)
        machine.markovian("up", 0.05, "pf")
        machine.interactive("pf", "f", "down")
        machine.label("pf", "down")
        machine.label("down", "down")
        machine.markovian("down", 1.0, "pr")
        machine.interactive("pr", "r", "up")
        automaton = hide(machine.build(), {"f", "r"})
        direct = extract_ctmc(maximal_progress_cut(automaton))
        reduced = extract_ctmc(minimize_strong(maximal_progress_cut(automaton)).quotient)
        assert steady_state_availability(direct) == pytest.approx(
            steady_state_availability(reduced), rel=1e-12
        )


class TestMaximalProgress:
    def test_markovian_removed_from_unstable_states(self):
        builder = IOIMCBuilder("mp", Signature.create(outputs={"x"}))
        builder.state("s", initial=True)
        builder.interactive("s", "x", "t")
        builder.markovian("s", 3.0, "u")
        builder.markovian("t", 1.0, "u")
        cut = maximal_progress_cut(builder.build())
        assert cut.markovian[cut.initial] == []
        # The stable state keeps its Markovian transition.
        t_index = next(i for i in cut.states() if cut.state_name(i) == "t")
        assert len(cut.markovian[t_index]) == 1

    def test_input_race_is_kept(self):
        """Inputs can be delayed, so a race between an input and a delay remains."""
        builder = IOIMCBuilder("race", Signature.create(inputs={"a"}))
        builder.state("s", initial=True)
        builder.interactive("s", "a", "t")
        builder.markovian("s", 1.0, "u")
        cut = maximal_progress_cut(builder.build())
        assert len(cut.markovian[cut.initial]) == 1


class TestVanishingElimination:
    def test_single_tau_chain_collapses(self):
        builder = IOIMCBuilder("chain", Signature.create(internals={"tau"}))
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("b", "tau", "c")
        builder.markovian("c", 1.0, "a")
        reduced = eliminate_vanishing_chains(builder.build())
        assert reduced.num_states == 1

    def test_states_with_outputs_are_kept(self):
        builder = IOIMCBuilder("keep", Signature.create(outputs={"x"}, internals={"tau"}))
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("a", "x", "c")
        builder.markovian("b", 1.0, "a")
        builder.markovian("c", 1.0, "a")
        reduced = eliminate_vanishing_chains(builder.build())
        assert reduced.num_states == 3

    def test_branching_tau_is_kept(self):
        builder = IOIMCBuilder("branch", Signature.create(internals={"tau"}))
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("a", "tau", "c")
        builder.markovian("b", 1.0, "a")
        builder.markovian("c", 2.0, "a")
        reduced = eliminate_vanishing_chains(builder.build())
        assert reduced.num_states == 3

    def test_vanishing_labels_not_smeared(self):
        """Labels of zero-time states must not leak onto tangible successors."""
        builder = IOIMCBuilder("labels", Signature.create(internals={"tau"}))
        builder.state("v", initial=True, labels={"down"})
        builder.interactive("v", "tau", "t")
        builder.markovian("t", 1.0, "v")
        reduced = eliminate_vanishing_chains(builder.build())
        assert reduced.label_of(reduced.initial) == frozenset()


class TestWeakBisimulation:
    def test_weak_at_least_as_coarse_as_strong(self):
        builder = IOIMCBuilder("w", Signature.create(outputs={"x"}, internals={"tau"}))
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("b", "x", "c")
        builder.interactive("a", "x", "c")
        builder.markovian("c", 1.0, "a")
        automaton = builder.build()
        strong = minimize_strong(automaton).quotient
        weak = minimize_weak(automaton).quotient
        assert weak.num_states <= strong.num_states

    def test_weak_merges_tau_predecessor(self):
        builder = IOIMCBuilder("w2", Signature.create(outputs={"x"}, internals={"tau"}))
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("b", "x", "b")
        automaton = builder.build()
        weak = minimize_weak(automaton).quotient
        assert weak.num_states == 1


class TestWeakRateAttribution:
    """Regression tests for the Markovian-rate attribution of the weak engine.

    The seed attributed the rate of ``p --rate--> t`` to the *maximum-numbered*
    block reachable from ``t`` by tau steps — an arbitrary pick whenever the
    closure crossed several classes.  The rewritten engine attributes the rate
    to the class of the tau-sinks of ``t`` and raises ``LumpingError`` when
    genuinely nondeterministic internal branching makes that ambiguous.
    """

    def test_nondeterministic_multi_class_target_raises(self):
        builder = IOIMCBuilder(
            "nondet", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("s", initial=True)
        builder.markovian("s", 1.0, "t")
        # t branches internally into two states with *different* weak
        # behaviour: u can do x forever, v deadlocks.
        builder.interactive("t", "tau", "u")
        builder.interactive("t", "tau", "v")
        builder.interactive("u", "x", "u")
        with pytest.raises(LumpingError):
            weak_bisimulation_partition(builder.build())

    def test_confluent_branching_is_accepted(self):
        builder = IOIMCBuilder(
            "confluent", Signature.create(internals={"tau"})
        )
        builder.state("s", initial=True)
        builder.markovian("s", 2.0, "t")
        # t branches internally, but both branches deadlock: the sinks are
        # weakly bisimilar, so the attribution is unambiguous.
        builder.interactive("t", "tau", "u")
        builder.interactive("t", "tau", "v")
        result = minimize_weak(builder.build())
        assert result.quotient.num_states == 2
        assert result.quotient.exit_rate(result.quotient.initial) == pytest.approx(2.0)

    def test_deterministic_chain_attributes_to_sink_class(self):
        """A tau chain crossing classes attributes the rate to the chain's end.

        ``s1`` moves Markovianly into the chain ``t --tau--> u`` while ``s2``
        moves straight into ``u``.  Because the internal move is taken in zero
        time, both land in ``u``'s class with the same rate and must be
        weakly bisimilar.  The seed's max-numbered-block pick attributed
        ``s1``'s rate to an arbitrary class of the closure and could split the
        pair.
        """
        builder = IOIMCBuilder(
            "chain", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("s1", initial=True)
        builder.state("s2")
        builder.markovian("s1", 1.0, "t")
        builder.markovian("s2", 1.0, "u")
        # t and u are not weakly bisimilar: t offers the weak x-move.
        builder.interactive("t", "x", "t")
        builder.interactive("t", "tau", "u")
        automaton = builder.build()
        partition = weak_bisimulation_partition(automaton)
        by_name = {automaton.state_name(state): state for state in automaton.states()}
        assert partition.block_of[by_name["t"]] != partition.block_of[by_name["u"]]
        assert partition.block_of[by_name["s1"]] == partition.block_of[by_name["s2"]]


def interactive_structure(automaton):
    """Per state: the deduplicated, sorted ``(action, target)`` moves."""
    return [
        sorted(set(automaton.interactive[state])) for state in automaton.states()
    ]


def markovian_structure(automaton):
    """Per state: cumulative Markovian rate per target state."""
    structure = []
    for state in automaton.states():
        rates: dict[int, float] = {}
        for rate, target in automaton.markovian[state]:
            rates[target] = rates.get(target, 0.0) + rate
        structure.append(rates)
    return structure


class TestQuotientTransitionStructure:
    """The quotients' *transition structure*, pinned for all three modes.

    The earlier tests only asserted block counts, so a quotient that merged
    the right states but wired the wrong transitions between them (the exact
    bug class of the seed's representative-only weak quotient) would have
    slipped through.  These assertions fix that gap: every expected
    interactive move and cumulative rate between blocks is spelled out.
    """

    def test_strong_quotient_structure_on_diamond(self):
        result = minimize_strong(symmetric_pair())
        quotient = result.quotient
        # State order both_up, a_down, b_down, both_down: the two single-down
        # states merge, first-occurrence numbering gives up=0, down-pair=1,
        # both_down=2.
        assert result.block_of_state == (0, 1, 1, 2)
        assert quotient.num_states == 3
        assert interactive_structure(quotient) == [[], [], []]
        assert markovian_structure(quotient) == [
            {1: pytest.approx(1.0)},  # 0.5 + 0.5 into the merged class
            {2: pytest.approx(0.5)},
            {},
        ]
        assert quotient.label_of(2) == frozenset({"down"})

    def tau_machine(self):
        """``entry --tau--> serve --x!--> wait --1.0--> entry`` plus a second
        tau-predecessor ``entry2`` of ``serve``: the tau-abstracting modes
        merge {entry, entry2, serve}; strong keeps all four states."""
        builder = IOIMCBuilder(
            "tau_machine", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("entry", initial=True)
        builder.interactive("entry", "tau", "serve")
        builder.state("entry2")
        builder.interactive("entry2", "tau", "serve")
        builder.interactive("serve", "x", "wait")
        builder.markovian("wait", 1.0, "entry")
        return builder.build()

    @pytest.mark.parametrize("minimize", [minimize_weak, minimize_branching])
    def test_abstracting_quotient_structure_on_tau_machine(self, minimize):
        result = minimize(self.tau_machine())
        quotient = result.quotient
        # {entry, entry2, serve} collapse (inert taus dropped), wait stays.
        assert result.block_of_state == (0, 0, 0, 1)
        assert quotient.num_states == 2
        assert interactive_structure(quotient) == [[("x", 1)], []]
        assert markovian_structure(quotient) == [{}, {0: pytest.approx(1.0)}]

    def test_strong_quotient_structure_on_tau_machine(self):
        result = minimize_strong(self.tau_machine())
        quotient = result.quotient
        # Strong bisimulation merges only the two tau-predecessors (state
        # order entry, serve, entry2, wait) and keeps the tau edge itself.
        assert result.block_of_state == (0, 1, 0, 2)
        assert quotient.num_states == 3
        assert interactive_structure(quotient) == [[("tau", 1)], [("x", 2)], []]
        assert markovian_structure(quotient) == [{}, {}, {0: pytest.approx(1.0)}]

    @pytest.mark.parametrize("minimize", [minimize_weak, minimize_branching])
    def test_abstracting_modes_collapse_repair_loop_wiring(self, minimize):
        """A repair loop with hidden signals collapses to its 2-state shape:
        one up-class with the failure rate, one down-class with the repair
        rate, no interactive moves left.  (Strong bisimulation cannot merge
        the tau-announcing intermediate states — asserted alongside.)"""
        machine = IOIMCBuilder("m", Signature.create(outputs={"f", "r"}))
        machine.state("up", initial=True)
        machine.markovian("up", 0.05, "pf")
        machine.interactive("pf", "f", "down")
        machine.label("pf", "down")
        machine.label("down", "down")
        machine.markovian("down", 1.0, "pr")
        machine.interactive("pr", "r", "up")
        automaton = maximal_progress_cut(hide(machine.build(), {"f", "r"}))
        assert minimize_strong(automaton).quotient.num_states == 4
        result = minimize(automaton)
        quotient = result.quotient
        # State order up, pf, down, pr: the zero-time announcement states
        # join the tangible state they lead to.
        assert result.block_of_state == (0, 1, 1, 0)
        assert quotient.num_states == 2
        assert interactive_structure(quotient) == [[], []]
        assert markovian_structure(quotient) == [
            {1: pytest.approx(0.05)},
            {0: pytest.approx(1.0)},
        ]
        assert quotient.label_of(1) == frozenset({"down"})
        assert quotient.label_of(0) == frozenset()


def reference_strong_partition(automaton):
    """Naive round-based strong-bisimulation refinement (the seed algorithm).

    Serves as the executable specification the worklist engine must match,
    including the 9-significant-digit rate rounding of the signature.
    """
    reference = from_keys([automaton.label_of(state) for state in automaton.states()])

    def signature(state):
        interactive = frozenset(
            (action, reference.block_of[target])
            for action, target in automaton.interactive[state]
        )
        rates = {}
        for rate, target in automaton.markovian[state]:
            block = reference.block_of[target]
            rates[block] = rates.get(block, 0.0) + rate
        markovian = tuple(
            sorted((block, float(f"{rate:.9e}")) for block, rate in rates.items())
        )
        return (interactive, markovian)

    while refine(reference, signature):
        pass
    return reference


class TestWorklistRefinement:
    """The worklist engine must agree with naive round-based refinement."""

    def test_matches_round_based_refinement_on_composed_model(self):
        machine = IOIMCBuilder("m", Signature.create(outputs={"f", "r"}))
        machine.state("up", initial=True)
        machine.markovian("up", 0.05, "pf")
        machine.interactive("pf", "f", "down")
        machine.label("pf", "down")
        machine.label("down", "down")
        machine.markovian("down", 1.0, "pr")
        machine.interactive("pr", "r", "up")
        automaton = maximal_progress_cut(hide(machine.build(), {"f", "r"}))

        partition = strong_bisimulation_partition(automaton)
        assert partition.block_of == reference_strong_partition(automaton).block_of

    def test_matches_round_based_on_random_graphs(self):
        import random

        for seed in range(20):
            rng = random.Random(seed)
            num_states = rng.randint(2, 24)
            builder = IOIMCBuilder(
                f"rand{seed}", Signature.create(outputs={"a", "b"})
            )
            names = [f"n{index}" for index in range(num_states)]
            builder.state(names[0], initial=True)
            for name in names[1:]:
                builder.state(name)
            for source in names:
                for _ in range(rng.randint(0, 3)):
                    builder.interactive(
                        source, rng.choice(["a", "b"]), rng.choice(names)
                    )
                if rng.random() < 0.6:
                    builder.markovian(
                        source, rng.choice([0.5, 1.0, 2.0]), rng.choice(names)
                    )
            automaton = builder.build()
            partition = strong_bisimulation_partition(automaton)
            reference = reference_strong_partition(automaton)
            assert partition.block_of == reference.block_of, f"seed {seed}"
