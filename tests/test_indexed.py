"""Tests for the interned-action transition index (repro.ioimc.indexed)."""

import random

import pytest

from repro.ioimc import ActionKind, IOIMCBuilder, Signature, TransitionIndex
from repro.lumping import maximal_progress_cut


@pytest.fixture()
def automaton():
    builder = IOIMCBuilder(
        "idx",
        Signature.create(inputs={"go"}, outputs={"done"}, internals={"tau"}),
    )
    builder.state("a", initial=True)
    builder.interactive("a", "tau", "b")
    builder.interactive("a", "go", "a")
    builder.interactive("b", "done", "c")
    builder.markovian("c", 2.0, "a")
    builder.interactive("c", "go", "c")
    return builder.build()


class TestTransitionIndex:
    def test_action_interning_is_deterministic(self, automaton):
        index = automaton.index()
        assert index.actions == sorted(automaton.signature.all_actions)
        for action, action_id in index.id_of.items():
            assert index.actions[action_id] == action
            assert index.kinds[action_id] is automaton.signature.kind_of(action)

    def test_index_is_cached_on_the_automaton(self, automaton):
        assert automaton.index() is automaton.index()

    def test_stability_bits_match_is_stable(self, automaton):
        index = automaton.index()
        for state in automaton.states():
            assert index.stable[state] == automaton.is_stable(state)

    def test_internal_successors(self, automaton):
        index = automaton.index()
        by_name = {automaton.state_name(s): s for s in automaton.states()}
        assert index.internal_successors[by_name["a"]] == [by_name["b"]]
        assert index.internal_successors[by_name["b"]] == []

    def test_interactive_ids_align_with_transition_order(self, automaton):
        index = automaton.index()
        for state in automaton.states():
            row = automaton.interactive[state]
            id_row = index.interactive_ids()[state]
            assert len(row) == len(id_row)
            for (action, target), (action_id, id_target) in zip(row, id_row):
                assert index.actions[action_id] == action
                assert id_target == target

    def test_sorted_interactive_is_sorted(self, automaton):
        for row in automaton.index().sorted_interactive():
            assert row == sorted(row)

    def test_predecessors_cover_both_transition_kinds(self, automaton):
        index = automaton.index()
        by_name = {automaton.state_name(s): s for s in automaton.states()}
        # a is reached by c's Markovian transition and its own input self-loop.
        assert by_name["c"] in index.predecessors()[by_name["a"]]
        assert by_name["a"] in index.predecessors()[by_name["a"]]
        # b is reached from a (plus its own materialised input self-loop).
        assert set(index.predecessors()[by_name["b"]]) == {by_name["a"], by_name["b"]}

    def test_tau_closure(self, automaton):
        index = automaton.index()
        by_name = {automaton.state_name(s): s for s in automaton.states()}
        closure = index.tau_closure()
        assert closure[by_name["a"]] == sorted({by_name["a"], by_name["b"]})
        assert closure[by_name["c"]] == [by_name["c"]]

    def test_adopt_shares_interactive_tables(self, automaton):
        index = automaton.index()
        cut = maximal_progress_cut(automaton)
        # The cut shares its interactive table, so the adopted index must
        # share the interactive-derived caches but rebuild predecessors.
        assert cut is automaton or cut.index().stable is index.stable

    def test_visibility_flags(self, automaton):
        index = automaton.index()
        tau = index.id_of["tau"]
        go = index.id_of["go"]
        done = index.id_of["done"]
        assert index.is_internal[tau] and not index.is_visible[tau]
        assert index.is_input[go] and index.is_visible[go]
        assert not index.is_input[done] and index.is_visible[done]
        assert index.kinds[done] is ActionKind.OUTPUT

    def test_summary_matches_automaton(self, automaton):
        assert automaton.index().summary() == automaton.summary()


def dfs_tau_closure(automaton):
    """Per state, the sorted states reachable by internal moves (DFS)."""
    internals = automaton.signature.internals
    closure = []
    for state in automaton.states():
        reached = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for action, successor in automaton.interactive[current]:
                if action in internals and successor not in reached:
                    reached.add(successor)
                    stack.append(successor)
        closure.append(sorted(reached))
    return closure


def random_tau_graph(seed):
    """Random automaton over two internal actions and one output, with
    tau-cycles, tau self-loops and states that have no tau edge."""
    rng = random.Random(seed)
    num_states = rng.randint(1, 30)
    builder = IOIMCBuilder(
        f"taus{seed}", Signature.create(outputs={"x"}, internals={"tau", "tau2"})
    )
    names = [f"n{index}" for index in range(num_states)]
    builder.state(names[0], initial=True)
    for name in names[1:]:
        builder.state(name)
    for source in names:
        if rng.random() < 0.3:
            continue  # no outgoing edge at all
        for _ in range(rng.randint(1, 3)):
            builder.interactive(
                source, rng.choice(["x", "tau", "tau", "tau2"]), rng.choice(names)
            )
        if rng.random() < 0.15:
            builder.interactive(source, "tau", source)
    return builder.build()


class TestTauClosure:
    def assert_matches_dfs(self, automaton):
        expected = dfs_tau_closure(automaton)
        index = automaton.index()
        indptr, post = index.tau_closure_csr()
        assert indptr.tolist()[0] == 0 and len(indptr) == automaton.num_states + 1
        assert [
            post[indptr[state] : indptr[state + 1]].tolist()
            for state in automaton.states()
        ] == expected
        assert index.tau_closure() == expected

    def test_random_tau_graphs(self):
        for seed in range(60):
            self.assert_matches_dfs(random_tau_graph(seed))

    def test_one_state_automaton(self):
        builder = IOIMCBuilder("single", Signature.create(internals={"tau"}))
        builder.state("only", initial=True)
        self.assert_matches_dfs(builder.build())
        builder.interactive("only", "tau", "only")
        self.assert_matches_dfs(builder.build())

    def test_tau_cycle_reaches_every_member(self):
        builder = IOIMCBuilder("ring", Signature.create(internals={"tau"}))
        builder.state("r0", initial=True)
        for index in range(5):
            builder.interactive(f"r{index}", "tau", f"r{(index + 1) % 5}")
        automaton = builder.build()
        assert automaton.index().tau_closure() == [list(range(5))] * 5
        self.assert_matches_dfs(automaton)
