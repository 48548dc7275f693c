"""Conversion of a closed I/O-IMC into a labelled CTMC.

This is the third step of the evaluation approach of Section 4: once the
composer has produced a single I/O-IMC for the whole system and every signal
has been hidden, the model contains only internal (tau) and Markovian
transitions.  Under the maximal-progress assumption the internal transitions
are taken in zero time, so the model is equivalent to a CTMC over its
*tangible* states (states without urgent transitions):

1. Markovian transitions of unstable states are removed (maximal progress);
2. every vanishing (unstable) state is replaced by the tangible state its
   tau-transitions lead to — the models produced by the Arcade translation
   are *confluent*, i.e. all maximal tau-paths from a vanishing state end in
   the same tangible state.  This is verified here: a vanishing state that
   reaches two tangible states, or none, raises
   :class:`~repro.errors.NondeterminismError`;
3. only the labels of the tangible states are kept: vanishing states are
   occupied for zero time, so their atomic propositions cannot contribute to
   any (time-based) measure.  In Arcade models the system-failure condition
   can never hold *only* during a vanishing instant (repairs take positive
   time), so no failure information is lost.

The conversion runs on the CSR tables of the automaton's
:class:`~repro.ioimc.indexed.TransitionIndex`: tangibility is the index's
stability bit, the Markovian edges whose target is already tangible — the
vast majority after reduction — are renumbered wholesale, and only edges
into *vanishing* targets walk the tau-resolution (memoised per target).  The
resulting edge columns feed :meth:`repro.ctmc.CTMC.from_arrays`, so no
Python per-transition loop is left between the final I/O-IMC and the chain.
"""

from __future__ import annotations

import numpy as np

from ..errors import NondeterminismError
from ..ioimc import IOIMC
from ..lumping.reductions import maximal_progress_cut
from ..names import select
from ..nputil import csr_indptr, unique_sorted
from .ctmc import CTMC


def extract_ctmc(automaton: IOIMC) -> CTMC:
    """Convert a closed I/O-IMC into a labelled CTMC.

    ``automaton`` is the fully composed I/O-IMC.  It must be *closed*: no
    input actions may remain and every output should have been hidden.
    Remaining outputs are tolerated and treated like internal actions (they
    cannot synchronise with anything anymore).  Raises
    :class:`NondeterminismError` when input actions remain, or when a
    vanishing state the chain needs can reach two different tangible states
    (or none) via internal moves.
    """
    if automaton.signature.inputs:
        raise NondeterminismError(
            "the I/O-IMC still has input actions "
            f"{sorted(automaton.signature.inputs)}; it is not a closed system"
        )
    automaton = maximal_progress_cut(automaton)
    index = automaton.index()
    interactive_csr = index.interactive_csr
    markovian_csr = index.markovian_csr

    # With no inputs left every interactive transition is urgent, so the
    # tangible states are exactly the index's stable ones.
    tangible_flags = index.stable_flags
    tangible = np.flatnonzero(tangible_flags)
    tangible_of = np.full(automaton.num_states, -1, dtype=np.int64)
    tangible_of[tangible] = np.arange(len(tangible), dtype=np.int64)

    # Urgent successor CSR (sources are the vanishing states, by definition).
    urgent = ~index.input_flags[interactive_csr.action]
    urgent_source = interactive_csr.source[urgent]
    urgent_target = interactive_csr.target[urgent]
    urgent_indptr = csr_indptr(urgent_source, automaton.num_states)

    # The tangible state reached by exhausting urgent transitions from a
    # state (-1 while unresolved: a tau-cycle contributes nothing).
    resolution: dict[int, int] = {}

    def resolve(state: int) -> int:
        if tangible_flags[state]:
            return state
        cached = resolution.get(state)
        if cached is not None:
            return cached
        resolution[state] = -1  # guard against tau-cycles
        reached = {
            resolve(target)
            for target in urgent_target[
                urgent_indptr[state] : urgent_indptr[state + 1]
            ].tolist()
        } - {-1}
        if len(reached) > 1:
            names = [automaton.state_name(s) for s in sorted(reached)]
            raise NondeterminismError(
                f"vanishing state {automaton.state_name(state)} can reach "
                f"{len(reached)} different tangible states "
                f"({', '.join(names[:5])}...); the model is not confluent"
            )
        resolution[state] = reached.pop() if reached else -1
        return resolution[state]

    def resolve_tangible(state: int) -> int:
        resolved = resolve(state)
        if resolved < 0:
            raise NondeterminismError(
                f"vanishing state {automaton.state_name(state)} reaches no "
                "tangible state: its internal moves cycle forever"
            )
        return int(tangible_of[resolved])

    # Markovian sources are all tangible (maximal progress cut above); edges
    # whose target is tangible too — the common case — map wholesale.  Edges
    # into vanishing targets go through the (memoised) tau-resolution; each
    # unique vanishing target resolves once.
    edge_target = tangible_of[markovian_csr.target]
    vanishing_edges = np.flatnonzero(edge_target < 0)
    if len(vanishing_edges):
        vanishing_targets = markovian_csr.target[vanishing_edges]
        confluent_of = np.full(automaton.num_states, -1, dtype=np.int64)
        for state in unique_sorted(vanishing_targets).tolist():
            confluent_of[state] = resolve_tangible(state)
        edge_target[vanishing_edges] = confluent_of[vanishing_targets]

    labels = {}
    for state, props in automaton.labels.items():
        if tangible_flags[state] and props:
            labels[int(tangible_of[state])] = frozenset(props)
    return CTMC.from_arrays(
        len(tangible),
        tangible_of[markovian_csr.source],
        markovian_csr.rate,
        edge_target,
        resolve_tangible(automaton.initial),
        labels,
        select(automaton.name_source, tangible),
    )


__all__ = ["extract_ctmc"]
