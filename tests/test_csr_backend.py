"""Property tests: the CSR columns and the row views describe one automaton.

An I/O-IMC stores its transitions once, as the flat CSR columns of its
:class:`repro.ioimc.TransitionIndex`; the per-state row tables
(``automaton.interactive`` / ``automaton.markovian``) are views rebuilt from
those columns.  These tests pin the equivalence in both directions on the
differential-suite model generator:

* rows -> CSR: the validating constructor turns rows into columns that
  describe exactly the given transitions, in row order, with deterministic
  action interning;
* CSR -> rows: automata built from columns (products, quotients) have row
  views that pass the validating constructor and describe the same
  transitions as their columns.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential.generators import random_arcade_model

from repro.arcade.semantics import translate_model
from repro.ioimc import IOIMC, Signature, compose, hide
from repro.ioimc.actions import natural_sort_key
from repro.lumping import eliminate_vanishing_chains, maximal_progress_cut, minimize_strong

SEEDS = range(8)


def blocks_of(seed):
    return list(translate_model(random_arcade_model(seed)).blocks.values())


def rows_from_csr(automaton):
    """Reconstruct (interactive, markovian) list-of-rows from the CSR arrays."""
    index = automaton.index()
    icsr = index.interactive_csr
    mcsr = index.markovian_csr
    interactive = [[] for _ in automaton.states()]
    for source, action, target in zip(
        icsr.source.tolist(), icsr.action.tolist(), icsr.target.tolist()
    ):
        interactive[source].append((index.actions[action], target))
    markovian = [[] for _ in automaton.states()]
    for source, rate, target in zip(
        mcsr.source.tolist(), mcsr.rate.tolist(), mcsr.target.tolist()
    ):
        markovian[source].append((rate, target))
    return interactive, markovian


def assert_csr_matches_rows(automaton):
    index = automaton.index()
    interactive, markovian = rows_from_csr(automaton)
    assert interactive == [list(row) for row in automaton.interactive]
    assert markovian == [list(row) for row in automaton.markovian]
    # Row offsets are consistent with the per-edge source column.
    icsr = index.interactive_csr
    for state in automaton.states():
        span = icsr.source[icsr.indptr[state] : icsr.indptr[state + 1]]
        assert (span == state).all()
    # Interning is deterministic: sorted action names, ids by position.
    assert index.actions == sorted(automaton.signature.all_actions)
    assert all(index.actions[aid] == act for act, aid in index.id_of.items())


def assert_same_columns(actual, expected):
    """Byte-equal CSR columns (dtype included) and equal metadata."""
    assert (actual.name, actual.signature, actual.initial, actual.num_states) == (
        expected.name,
        expected.signature,
        expected.initial,
        expected.num_states,
    )
    assert actual.labels == expected.labels
    assert actual.state_names == expected.state_names
    for kind in ("interactive_csr", "markovian_csr"):
        got = getattr(actual.index(), kind)
        want = getattr(expected.index(), kind)
        for column in got.__slots__:
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (kind, column)


@pytest.mark.parametrize("seed", SEEDS)
def test_building_block_round_trip(seed):
    """Automata built from rows: rows -> CSR -> rows is the identity."""
    for block in blocks_of(seed):
        assert_csr_matches_rows(block)


@pytest.mark.parametrize("seed", SEEDS)
def test_lazy_product_round_trip_and_validation(seed):
    """Products built from columns have row views equal to those columns."""
    blocks = blocks_of(seed)
    composite = compose(blocks[0], blocks[1])
    assert_csr_matches_rows(composite)
    # The row views pass the validating constructor and rebuild the same
    # columns.
    from repro.ioimc import IOIMC

    rebuilt = IOIMC(
        composite.name,
        composite.signature,
        composite.num_states,
        composite.initial,
        composite.interactive,
        composite.markovian,
        composite.labels,
        composite.state_names,
    )
    assert_same_columns(rebuilt, composite)


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_stages_round_trip(seed):
    """Hide/cut/vanishing/quotient outputs agree with their CSR tables."""
    blocks = blocks_of(seed)
    composite = compose(blocks[0], blocks[1])
    hidden = hide(composite, composite.signature.outputs)
    cut = maximal_progress_cut(hidden)
    reduced = eliminate_vanishing_chains(cut)
    quotient = minimize_strong(reduced.restrict_to_reachable()).quotient
    for automaton in (hidden, cut, reduced, quotient):
        assert_csr_matches_rows(automaton)


@pytest.mark.parametrize("seed", SEEDS)
def test_stability_and_predecessors_match_scalar_queries(seed):
    for block in blocks_of(seed):
        index = block.index()
        for state in block.states():
            assert index.stable_flags[state] == block.is_stable(state)
        indptr, sources = index.predecessor_csr()
        interactive, markovian = block.interactive, block.markovian
        for state in block.states():
            span = sources[indptr[state] : indptr[state + 1]].tolist()
            expected = sorted(
                {
                    source
                    for source in block.states()
                    if any(t == state for _, t in interactive[source])
                    or any(t == state for _, t in markovian[source])
                }
            )
            assert span == expected


def test_summary_counts_are_edge_counts():
    blocks = blocks_of(0)
    composite = compose(blocks[0], blocks[1])
    summary = composite.summary()
    index = composite.index()
    assert summary["interactive_transitions"] == index.interactive_csr.num_edges
    assert summary["markovian_transitions"] == index.markovian_csr.num_edges
    assert summary["states"] == composite.num_states


def ensure_input_enabled_rows(automaton):
    """Row-loop oracle of :meth:`IOIMC.ensure_input_enabled`: append each
    state's missing input self-loops after its own transitions, in natural
    name order."""
    inputs = automaton.signature.inputs
    interactive = []
    for state, row in enumerate(automaton.interactive):
        missing = inputs - {action for action, _ in row}
        interactive.append(
            row + [(action, state) for action in sorted(missing, key=natural_sort_key)]
        )
    return IOIMC(
        automaton.name,
        automaton.signature,
        automaton.num_states,
        automaton.initial,
        interactive,
        automaton.markovian,
        automaton.labels,
        automaton.state_names,
    )


#: ``in2`` sorts before ``in10`` naturally but after it lexicographically.
INPUTS = ("in1", "in2", "in10")


@st.composite
def partially_enabled_automata(draw):
    num_states = draw(st.integers(1, 6))
    inputs = draw(st.sets(st.sampled_from(INPUTS)))
    actions = sorted(inputs) + ["out", "tau"]
    edge = st.tuples(st.sampled_from(actions), st.integers(0, num_states - 1))
    rate = st.tuples(st.sampled_from([0.5, 1.0, 3.0]), st.integers(0, num_states - 1))
    return IOIMC(
        "partial",
        Signature.create(inputs=inputs, outputs={"out"}, internals={"tau"}),
        num_states,
        0,
        [draw(st.lists(edge, max_size=4)) for _ in range(num_states)],
        [draw(st.lists(rate, max_size=2)) for _ in range(num_states)],
    )


@settings(max_examples=200, deadline=None)
@given(partially_enabled_automata())
def test_ensure_input_enabled_matches_row_oracle(automaton):
    enabled = automaton.ensure_input_enabled()
    assert_same_columns(enabled, ensure_input_enabled_rows(automaton))
    # Input-enabled automata come back unchanged.
    assert enabled.ensure_input_enabled() is enabled
    enabled.check_input_enabled()


def test_ensure_input_enabled_appends_loops_in_natural_order():
    automaton = IOIMC(
        "natural",
        Signature.create(inputs=set(INPUTS)),
        2,
        0,
        [[("in10", 1)], []],
        [[], []],
    )
    enabled = automaton.ensure_input_enabled()
    assert enabled.interactive == [
        [("in10", 1), ("in1", 0), ("in2", 0)],
        [("in1", 1), ("in2", 1), ("in10", 1)],
    ]
    assert_same_columns(enabled, ensure_input_enabled_rows(automaton))
