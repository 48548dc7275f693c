"""Tests for the interned-action transition index (repro.ioimc.indexed)."""

import gc
import random
import weakref

import numpy as np
import pytest

from repro.ioimc import ActionKind, IOIMCBuilder, Signature
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
            assert index.stable_flags[state] == automaton.is_stable(state)

    def test_internal_successors(self, automaton):
        index = automaton.index()
        csr = index.interactive_csr
        internal = index.internal_flags[csr.action]
        by_name = {automaton.state_name(s): s for s in automaton.states()}

        def successors(state):
            return csr.target[internal & (csr.source == state)].tolist()

        assert successors(by_name["a"]) == [by_name["b"]]
        assert successors(by_name["b"]) == []

    def test_interactive_ids_align_with_transition_order(self, automaton):
        index = automaton.index()
        csr = index.interactive_csr
        for state in automaton.states():
            row = automaton.interactive[state]
            span = slice(csr.indptr[state], csr.indptr[state + 1])
            id_row = list(zip(csr.action[span].tolist(), csr.target[span].tolist()))
            assert (csr.source[span] == state).all()
            assert len(row) == len(id_row)
            for (action, target), (action_id, id_target) in zip(row, id_row):
                assert index.actions[action_id] == action
                assert id_target == target

    def test_sorted_interactive_is_sorted(self, automaton):
        # Sorting the CSR edges source-major by (action id, target) gives
        # every state's adjacency in ascending order, as a permutation of
        # its transition-order row.
        index = automaton.index()
        csr = index.interactive_csr
        order = np.lexsort((csr.target, csr.action, csr.source))
        assert (np.diff(csr.source[order]) >= 0).all()
        for state in automaton.states():
            span = order[csr.indptr[state] : csr.indptr[state + 1]]
            row = list(zip(csr.action[span].tolist(), csr.target[span].tolist()))
            assert row == sorted(row)
            assert row == sorted(
                (index.id_of[action], target)
                for action, target in automaton.interactive[state]
            )

    def test_predecessors_cover_both_transition_kinds(self, automaton):
        index = automaton.index()
        indptr, sources = index.predecessor_csr()
        by_name = {automaton.state_name(s): s for s in automaton.states()}

        def predecessors(state):
            return sources[indptr[state] : indptr[state + 1]].tolist()

        # a is reached by c's Markovian transition and its own input self-loop.
        assert by_name["c"] in predecessors(by_name["a"])
        assert by_name["a"] in predecessors(by_name["a"])
        # b is reached from a (plus its own materialised input self-loop).
        assert set(predecessors(by_name["b"])) == {by_name["a"], by_name["b"]}

    def test_tau_closure(self, automaton):
        indptr, post = automaton.index().tau_closure_csr()
        by_name = {automaton.state_name(s): s for s in automaton.states()}

        def closure(state):
            return post[indptr[state] : indptr[state + 1]].tolist()

        assert closure(by_name["a"]) == sorted({by_name["a"], by_name["b"]})
        assert closure(by_name["c"]) == [by_name["c"]]

    def test_cut_shares_interactive_columns(self, automaton):
        builder = IOIMCBuilder("cut", automaton.signature)
        builder.state("a", initial=True)
        builder.interactive("a", "done", "b")
        builder.markovian("a", 1.0, "b")
        builder.markovian("b", 2.0, "a")
        unstable = builder.build()
        cut = maximal_progress_cut(unstable)
        # The cut drops a's rate and shares the interactive columns.
        assert cut.num_markovian_transitions() == 1
        assert cut.index().interactive_csr is unstable.index().interactive_csr

    def test_equal_signatures_share_the_interning(self, automaton):
        # Interning depends only on the signature: an automaton built
        # independently over an equal signature shares the tables.
        builder = IOIMCBuilder(
            "other",
            Signature.create(inputs={"go"}, outputs={"done"}, internals={"tau"}),
        )
        builder.state("x", initial=True)
        other = builder.build()
        assert other.index() is not automaton.index()
        assert other.index().id_of is automaton.index().id_of
        assert other.index().input_flags is automaton.index().input_flags
        assert not other.index().input_flags.flags.writeable

    def test_visibility_flags(self, automaton):
        index = automaton.index()
        tau = index.id_of["tau"]
        go = index.id_of["go"]
        done = index.id_of["done"]
        assert index.internal_flags[tau] and not index.visible_flags[tau]
        assert index.input_flags[go] and index.visible_flags[go]
        assert not index.input_flags[done] and index.visible_flags[done]
        assert index.kinds[done] is ActionKind.OUTPUT

    def test_indexed_automaton_is_freed_without_the_cycle_collector(self, automaton):
        # The index holds no reference to its automaton, so an automaton
        # (every intermediate product) is freed as soon as its last
        # reference goes, not whenever the cycle collector next runs.
        copy = automaton.relabel_states(list(automaton.states()), automaton.num_states)
        index = copy.index()
        freed = weakref.ref(copy)
        gc.disable()
        try:
            del copy
            assert freed() is None
        finally:
            gc.enable()
        # What the index derived from its own tables keeps working.
        assert len(index.stable_flags) == automaton.num_states
        assert index.predecessor_csr()[0][-1] > 0


def closure_rows(index):
    """The CSR tau closure split into per-state lists."""
    indptr, post = index.tau_closure_csr()
    return [
        post[indptr[state] : indptr[state + 1]].tolist()
        for state in range(len(indptr) - 1)
    ]


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
        indptr, _ = automaton.index().tau_closure_csr()
        assert indptr.tolist()[0] == 0 and len(indptr) == automaton.num_states + 1
        assert closure_rows(automaton.index()) == dfs_tau_closure(automaton)

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
        assert closure_rows(automaton.index()) == [list(range(5))] * 5
        self.assert_matches_dfs(automaton)
