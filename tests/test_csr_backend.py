"""Property tests: the CSR backend round-trips with the row representation.

The vectorised engines (refinement, batched composition, the structural
reductions) operate exclusively on the flat CSR arrays of
:class:`repro.ioimc.TransitionIndex`; the Python list-of-rows tables remain
the source of truth for the scalar code paths and may now be *materialised
from* the CSR arrays (lazy automata).  These tests pin the equivalence in
both directions on the differential-suite model generator:

* rows -> CSR: the flat arrays describe exactly the automaton's transitions,
  in transition order, with deterministic action interning;
* CSR -> rows: automata built lazily from arrays (products, quotients)
  materialise rows that pass full validation and describe the same
  transitions as their CSR tables.
"""

import numpy as np
import pytest

from differential.generators import random_arcade_model

from repro.arcade.semantics import translate_model
from repro.ioimc import compose, hide
from repro.lumping import eliminate_vanishing_chains, maximal_progress_cut, minimize_strong

SEEDS = range(8)


def blocks_of(seed):
    return list(translate_model(random_arcade_model(seed)).blocks.values())


def rows_from_csr(automaton):
    """Reconstruct (interactive, markovian) list-of-rows from the CSR arrays."""
    index = automaton.index()
    icsr = index.interactive_csr
    mcsr = index.markovian_csr()
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


@pytest.mark.parametrize("seed", SEEDS)
def test_building_block_round_trip(seed):
    """Eagerly built automata: rows -> CSR -> rows is the identity."""
    for block in blocks_of(seed):
        assert_csr_matches_rows(block)


@pytest.mark.parametrize("seed", SEEDS)
def test_lazy_product_round_trip_and_validation(seed):
    """Lazily built products materialise rows equal to their CSR tables."""
    blocks = blocks_of(seed)
    composite = compose(blocks[0], blocks[1])
    assert composite._interactive is None  # built from arrays, rows pending
    assert_csr_matches_rows(composite)
    # The materialised tables pass the full (validating) constructor.
    from repro.ioimc import IOIMC

    IOIMC(
        composite.name,
        composite.signature,
        composite.num_states,
        composite.initial,
        composite.interactive,
        composite.markovian,
        composite.labels,
        composite.state_names,
    )


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
            assert index.stable[state] == block.is_stable(state)
        indptr, sources = index.predecessor_csr()
        for state in block.states():
            span = sources[indptr[state] : indptr[state + 1]].tolist()
            expected = sorted(
                {
                    source
                    for source in block.states()
                    if any(t == state for _, t in block.interactive[source])
                    or any(t == state for _, t in block.markovian[source])
                }
            )
            assert span == expected


def test_summary_counts_do_not_materialise_lazy_rows():
    blocks = blocks_of(0)
    composite = compose(blocks[0], blocks[1])
    summary = composite.summary()
    assert composite._interactive is None and composite._markovian is None
    index = composite.index()
    assert summary["interactive_transitions"] == index.interactive_csr.num_edges
    assert summary["markovian_transitions"] == index.markovian_csr().num_edges
    assert summary["states"] == composite.num_states


class TestPickleRoundTrip:
    """Regression: pickling must preserve the lazy-CSR invariant.

    The naive ``__dict__``-free pickling of the slotted :class:`IOIMC` used
    to ship ``_interactive=None`` automata without their explicit CSR
    tables, so the unpickled copy could neither materialise rows nor serve
    ``markovian`` (which reads the index's Markovian CSR directly).  The
    parallel composer ships exactly such automata between processes.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_round_trip(self, seed):
        import pickle

        for block in blocks_of(seed):
            restored = pickle.loads(pickle.dumps(block))
            assert restored._index is None or restored._index.automaton is restored
            assert [list(r) for r in restored.interactive] == [
                list(r) for r in block.interactive
            ]
            assert [list(r) for r in restored.markovian] == [
                list(r) for r in block.markovian
            ]
            assert_csr_matches_rows(restored)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lazy_round_trip_keeps_rows_lazy(self, seed):
        import pickle

        blocks = blocks_of(seed)
        composite = compose(blocks[0], blocks[1])
        assert composite._interactive is None
        restored = pickle.loads(pickle.dumps(composite))
        # Still lazy after the round trip, with an index that points back at
        # its own automaton — not at the original object.
        assert restored._interactive is None and restored._markovian is None
        assert restored._index is not None
        assert restored._index.automaton is restored
        assert rows_from_csr(restored) == rows_from_csr(composite)
        assert_csr_matches_rows(restored)

    def test_payload_stays_single_representation(self):
        """Materialising rows or the predecessor CSR must not grow the pickle.

        An indexed automaton pickles its CSR tables only; the derived
        structures (row lists, predecessor CSR, stability) are rebuilt on
        demand after unpickling.
        """
        import pickle

        blocks = blocks_of(0)
        composite = compose(blocks[0], blocks[1])
        baseline = len(pickle.dumps(composite))
        _ = composite.interactive  # materialise rows
        composite.index().predecessor_csr()
        assert len(pickle.dumps(composite)) == baseline
