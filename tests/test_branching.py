"""Tests for branching-bisimulation minimisation.

Three layers, mirroring how the strong and weak engines are pinned:

* hand-computed minimal examples that separate the three equivalences
  (branching is strictly finer than weak and strictly coarser than strong);
* tau-cycle, divergence and maximal-progress edge cases;
* a differential property test of the vectorised engine against the scalar
  round-based reference (:func:`branching_partition_reference`, kept here)
  on random tau-heavy automata, block-for-block including the canonical
  first-occurrence numbering;
* the CSR inert-tau quotient pinned against its per-state specification
  (:func:`quotient_modulo_inert_tau_reference`), and the ``block_of_state``
  mapping after the reachability restriction.
"""

import random

import pytest

from lumping_oracle import from_keys, refine

from repro.arcade.semantics import translate_model
from repro.casestudies.dds import DDSParameters, build_dds_model
from repro.ctmc import extract_ctmc, steady_state_availability
from repro.errors import LumpingError
from repro.ioimc import IOIMC, IOIMCBuilder, Signature, compose, hide
from repro.lumping import (
    branching_bisimulation_partition,
    maximal_progress_cut,
    minimize_branching,
    minimize_strong,
    minimize_weak,
    weak_bisimulation_partition,
)
from repro.lumping.closure import quotient_modulo_inert_tau


def classic_weak_vs_branching():
    """Van Glabbeek's classic: ``b + tau.c + c`` vs ``b + tau.c``.

    State ``r`` offers ``b``, ``c`` and an internal step to ``u`` (which can
    only do ``c``); state ``s`` offers only ``b`` and the internal step.
    The pair is weakly bisimilar (``s``'s weak ``c``-move goes through the
    tau) but *not* branching bisimilar: matching ``r --c-->`` requires ``s``
    to take its tau first, and that tau is not inert (``u`` cannot do ``b``,
    so ``u`` is not equivalent to ``s``).
    """
    builder = IOIMCBuilder(
        "classic", Signature.create(outputs={"b", "c"}, internals={"tau"})
    )
    builder.state("r", initial=True)
    builder.interactive("r", "b", "d1")
    builder.interactive("r", "c", "d2")
    builder.interactive("r", "tau", "u")
    builder.state("s")
    builder.interactive("s", "b", "d1")
    builder.interactive("s", "tau", "u")
    builder.interactive("u", "c", "d2")
    return builder.build()


def by_name(automaton):
    return {automaton.state_name(state): state for state in automaton.states()}


class TestThreeEquivalencesSeparate:
    def test_weak_merges_what_branching_separates(self):
        automaton = classic_weak_vs_branching()
        names = by_name(automaton)
        weak = weak_bisimulation_partition(automaton)
        branching = branching_bisimulation_partition(automaton)
        assert weak.block_of[names["r"]] == weak.block_of[names["s"]]
        assert branching.block_of[names["r"]] != branching.block_of[names["s"]]

    def test_partition_sizes_are_strictly_ordered(self):
        automaton = classic_weak_vs_branching()
        strong = minimize_strong(automaton).quotient.num_states
        branching = branching_bisimulation_partition(automaton).num_blocks
        weak = weak_bisimulation_partition(automaton).num_blocks
        # d1 and d2 are deadlocks: strong merges them, and so do the others;
        # weak additionally merges r with s.
        assert weak < branching <= strong

    def test_branching_merges_inert_tau_predecessor(self):
        """``a --tau--> b`` with ``b --x--> b`` collapses to one state: the
        tau is inert once a and b share a block (strong keeps two states)."""
        builder = IOIMCBuilder(
            "inert", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("b", "x", "b")
        automaton = builder.build()
        assert minimize_strong(automaton).quotient.num_states == 2
        assert minimize_branching(automaton).quotient.num_states == 1
        assert minimize_weak(automaton).quotient.num_states == 1

    def test_branching_coarser_than_strong_finer_than_weak_on_random_models(self):
        for seed in range(10):
            automaton = _random_tau_automaton(seed)
            strong = minimize_strong(automaton).quotient.num_states
            branching = branching_bisimulation_partition(automaton).num_blocks
            assert branching <= strong, f"seed {seed}"
            try:
                weak = weak_bisimulation_partition(automaton).num_blocks
            except LumpingError:
                # The weak engine rejects tau-nondeterministic rate
                # attribution; branching has no such failure mode.
                continue
            assert weak <= branching, f"seed {seed}"


class TestTauCyclesAndMaximalProgress:
    def test_tau_cycle_states_merge(self):
        """States on an inert tau-cycle are branching bisimilar (the
        divergence-blind notion), and the quotient drops the cycle."""
        builder = IOIMCBuilder(
            "cycle", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("p", initial=True)
        builder.interactive("p", "tau", "q")
        builder.interactive("q", "tau", "p")
        builder.interactive("q", "x", "r")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["p"]] == partition.block_of[names["q"]]
        quotient = minimize_branching(automaton).quotient
        assert quotient.num_states == 2
        # The inert cycle is gone: the merged class keeps only the x-move.
        assert all(
            action != "tau" for action, _ in quotient.interactive[quotient.initial]
        )

    def test_divergent_state_not_merged_with_stabilising_state(self):
        """A state on a sink-free tau-cycle can never let time pass; a
        deadlocked stable state can.  The two must not be identified."""
        builder = IOIMCBuilder("diverge", Signature.create(internals={"tau"}))
        builder.state("spin1", initial=True)
        builder.interactive("spin1", "tau", "spin2")
        builder.interactive("spin2", "tau", "spin1")
        builder.state("halt")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["spin1"]] == partition.block_of[names["spin2"]]
        assert partition.block_of[names["spin1"]] != partition.block_of[names["halt"]]

    def test_markovian_rates_of_unstable_states_are_ignored(self):
        """Maximal progress: an enabled tau makes a state's Markovian
        transitions unfireable, so they must not distinguish it."""
        builder = IOIMCBuilder("mp", Signature.create(internals={"tau"}))
        builder.state("s1", initial=True)
        builder.interactive("s1", "tau", "t")
        builder.markovian("s1", 42.0, "v")
        builder.state("s2")
        builder.interactive("s2", "tau", "t")
        builder.markovian("t", 1.0, "v")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["s1"]] == partition.block_of[names["s2"]]

    def test_stable_states_with_distinct_rates_are_separated(self):
        builder = IOIMCBuilder("rates", Signature.create())
        builder.state("a", initial=True)
        builder.markovian("a", 1.0, "sink")
        builder.state("b")
        builder.markovian("b", 2.0, "sink")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["a"]] != partition.block_of[names["b"]]

    def test_rate_attribution_is_to_the_direct_target_class(self):
        """Unlike the weak engine, a Markovian move into a vanishing state is
        *not* redistributed to the tau-sinks: the target's own class receives
        the rate, so the nondeterministic-attribution failure mode of the
        weak engine cannot arise."""
        builder = IOIMCBuilder(
            "nondet", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("s", initial=True)
        builder.markovian("s", 1.0, "t")
        # t branches internally into two inequivalent states: the weak engine
        # rejects this model (ambiguous sink attribution); branching handles
        # it by attributing the rate to t's own class.
        builder.interactive("t", "tau", "u")
        builder.interactive("t", "tau", "v")
        builder.interactive("u", "x", "u")
        automaton = builder.build()
        result = minimize_branching(automaton)
        quotient = result.quotient
        initial_rates = quotient.markovian[quotient.initial]
        assert len(initial_rates) == 1
        rate, target = initial_rates[0]
        assert rate == pytest.approx(1.0)
        assert target == result.block_of_state[by_name(automaton)["t"]]

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
        automaton = maximal_progress_cut(hide(machine.build(), {"f", "r"}))
        direct = extract_ctmc(automaton)
        reduced = extract_ctmc(minimize_branching(automaton).quotient)
        assert steady_state_availability(direct) == pytest.approx(
            steady_state_availability(reduced), rel=1e-12
        )


def _random_tau_automaton(seed: int):
    """A random automaton with a heavy share of internal transitions."""
    rng = random.Random(seed)
    num_states = rng.randint(2, 26)
    builder = IOIMCBuilder(
        f"rand{seed}", Signature.create(outputs={"a", "b"}, internals={"tau"})
    )
    names = [f"n{index}" for index in range(num_states)]
    builder.state(names[0], initial=True)
    for name in names[1:]:
        builder.state(name)
    for source in names:
        for _ in range(rng.randint(0, 3)):
            builder.interactive(
                source, rng.choice(["a", "b", "tau", "tau"]), rng.choice(names)
            )
        if rng.random() < 0.5:
            builder.markovian(
                source, rng.choice([0.5, 1.0, 2.0]), rng.choice(names)
            )
        if rng.random() < 0.25:
            builder.label(source, "down")
    return builder.build()


def labelled_pair():
    """Two states that differ only in a label (bisimilar without it)."""
    builder = IOIMCBuilder("labels", Signature.create())
    builder.state("a", initial=True, labels={"down"})
    builder.state("b")
    builder.markovian("a", 1.0, "b")
    builder.markovian("b", 1.0, "a")
    return builder.build()


def branching_partition_reference(automaton):
    """Naive round-based branching-bisimulation refinement.

    The executable specification of
    :func:`repro.lumping.branching_bisimulation_partition`: every round
    recomputes every state's inert closure with a DFS restricted to the
    state's current block and regroups the whole state space by frozenset
    signatures, using the same 9-significant-digit rate quantisation.
    Quadratic, but obviously correct; :class:`TestScalarVsVectorised` checks
    the two engines agree block-for-block (including numbering) on random
    tau-heavy automata.
    """
    index = automaton.index()
    csr = index.interactive_csr
    bounds = csr.indptr.tolist()
    pairs = list(zip(csr.action.tolist(), csr.target.tolist()))
    interactive = [pairs[start:end] for start, end in zip(bounds, bounds[1:])]
    internal_successors = [
        [target for action_id, target in row if index.internal_flags[action_id]]
        for row in interactive
    ]
    is_visible = index.visible_flags.tolist()
    stable = index.stable_flags.tolist()
    markovian = automaton.markovian

    partition = from_keys([automaton.label_of(state) for state in automaton.states()])

    def signature(state):
        block_of = partition.block_of
        home = block_of[state]
        members = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for successor in internal_successors[current]:
                if block_of[successor] == home and successor not in members:
                    members.add(successor)
                    stack.append(successor)
        elements = set()
        for member in members:
            for action_id, target in interactive[member]:
                if is_visible[action_id]:
                    elements.add((action_id, block_of[target]))
                elif block_of[target] != home:
                    elements.add(("tau", block_of[target]))
            if stable[member]:
                rates = {}
                for rate, target in markovian[member]:
                    landing = block_of[target]
                    rates[landing] = rates.get(landing, 0.0) + rate
                elements.add(
                    (
                        "rates",
                        tuple(
                            sorted(
                                (landing, float(f"{rate:.9e}"))
                                for landing, rate in rates.items()
                            )
                        ),
                    )
                )
        return frozenset(elements)

    while refine(partition, signature):
        pass
    return partition



class TestScalarVsVectorised:
    """The vectorised worklist engine must agree with the round-based scalar
    reference — same blocks, same first-occurrence numbering."""

    def test_matches_reference_on_hand_examples(self):
        for automaton in (classic_weak_vs_branching(), labelled_pair()):
            vectorised = branching_bisimulation_partition(automaton)
            reference = branching_partition_reference(automaton)
            assert vectorised.block_of == reference.block_of

    def test_matches_reference_on_random_tau_graphs(self):
        for seed in range(40):
            automaton = _random_tau_automaton(seed)
            vectorised = branching_bisimulation_partition(automaton)
            reference = branching_partition_reference(automaton)
            assert vectorised.block_of == reference.block_of, f"seed {seed}"


def quotient_modulo_inert_tau_reference(automaton, partition):
    """Per-state construction of the tau-abstracting quotient.

    The executable specification of
    :func:`repro.lumping.closure.quotient_modulo_inert_tau`: one pass over
    the states fills per-class sets of non-inert ``(action, target class)``
    moves (first-seen order), picks each class's first stable member (or
    first member) as its representative, sums the representative's rates
    per target class, and restricts the result to the reachable classes.
    """
    block_of = partition.block_of
    num_blocks = partition.num_blocks
    stable = automaton.index().stable_flags.tolist()
    internals = automaton.signature.internals
    rows = automaton.interactive
    rate_rows = automaton.markovian

    representative = [None] * num_blocks
    interactive = [[] for _ in range(num_blocks)]
    seen = [set() for _ in range(num_blocks)]
    for state in automaton.states():
        block = block_of[state]
        current = representative[block]
        if current is None or (stable[state] and not stable[current]):
            representative[block] = state
        for action, target in rows[state]:
            target_block = block_of[target]
            if target_block == block and action in internals:
                continue  # inert: internal move inside the class
            entry = (action, target_block)
            if entry not in seen[block]:
                seen[block].add(entry)
                interactive[block].append(entry)

    markovian = [[] for _ in range(num_blocks)]
    labels = {}
    names = []
    for block, state in enumerate(representative):
        names.append(automaton.state_name(state))
        props = automaton.label_of(state)
        if props:
            labels[block] = props
        rates = {}
        for rate, target in rate_rows[state]:
            rates[block_of[target]] = rates.get(block_of[target], 0.0) + rate
        markovian[block] = [(rate, target) for target, rate in sorted(rates.items())]

    quotient = IOIMC(
        automaton.name,
        automaton.signature,
        num_blocks,
        block_of[automaton.initial],
        interactive,
        markovian,
        labels,
        names,
    )
    return quotient.restrict_to_reachable()


def assert_same_quotient(actual, expected):
    assert actual.num_states == expected.num_states
    assert actual.initial == expected.initial
    assert actual.labels == expected.labels
    assert actual.state_names == expected.state_names
    actual_rates = actual.index().markovian_csr
    expected_rates = expected.index().markovian_csr
    for column in ("indptr", "source", "rate", "target"):
        assert (
            getattr(actual_rates, column).tobytes()
            == getattr(expected_rates, column).tobytes()
        ), column
    assert [sorted(row) for row in actual.interactive] == [
        sorted(row) for row in expected.interactive
    ]


PARTITIONS = {
    "weak": weak_bisimulation_partition,
    "branching": branching_bisimulation_partition,
}


class TestInertTauQuotientMatchesReference:
    """The CSR quotient must reproduce the per-state construction exactly."""

    @pytest.mark.parametrize("mode", sorted(PARTITIONS))
    def test_random_tau_graphs(self, mode):
        compared = 0
        for seed in range(40):
            automaton = _random_tau_automaton(seed)
            try:
                partition = PARTITIONS[mode](automaton)
            except LumpingError:
                continue  # weak: tau-nondeterministic rate attribution
            result = quotient_modulo_inert_tau(automaton, partition)
            assert_same_quotient(
                result.quotient,
                quotient_modulo_inert_tau_reference(automaton, partition),
            )
            compared += 1
        assert compared >= 20

    @pytest.mark.parametrize("mode", sorted(PARTITIONS))
    def test_dds_disk_cluster(self, mode):
        """The DDS cluster repair unit composed with its four disks, the
        failure and repair signals hidden (705 states, 241 classes)."""
        blocks = translate_model(build_dds_model(DDSParameters(num_clusters=1))).blocks
        cluster = blocks["cluster_rep_1"]
        for disk in ("d_1", "d_2", "d_3", "d_4"):
            cluster = compose(cluster, blocks[disk])
        automaton = hide(
            cluster,
            {action for action in cluster.signature.outputs if not action.endswith(".up")},
        )
        partition = PARTITIONS[mode](automaton)
        assert (automaton.num_states, partition.num_blocks) == (705, 241)
        result = quotient_modulo_inert_tau(automaton, partition)
        assert_same_quotient(
            result.quotient, quotient_modulo_inert_tau_reference(automaton, partition)
        )


def unreachable_down_state():
    """``s0 -1.0-> s2 -2.0-> s0`` plus an unreachable ``down`` state ``s1``
    with a rate back to ``s0``: all three states are pairwise inequivalent."""
    builder = IOIMCBuilder("unreachable", Signature.create())
    builder.state("s0", initial=True)
    builder.state("s1", labels={"down"})
    builder.state("s2")
    builder.markovian("s0", 1.0, "s2")
    builder.markovian("s1", 1.0, "s0")
    builder.markovian("s2", 2.0, "s0")
    return builder.build()


class TestBlockOfStateAfterRestriction:
    @pytest.mark.parametrize("minimize", [minimize_weak, minimize_branching])
    def test_abstracting_modes_renumber_and_drop(self, minimize):
        result = minimize(unreachable_down_state())
        assert result.quotient.state_names == ["s0", "s2"]
        # s2 is quotient state 1; s1's class is unreachable and dropped.
        assert result.block_of_state == (0, -1, 1)

    def test_strong_keeps_every_class(self):
        result = minimize_strong(unreachable_down_state())
        assert result.quotient.num_states == 3
        assert result.block_of_state == (0, 1, 2)
