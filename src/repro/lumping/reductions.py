"""Structural reductions applied between composition steps.

Two reductions are used by the compositional-aggregation pipeline (the role
played by CADP's minimisation in the paper's tool chain, Section 4):

* :func:`maximal_progress_cut` — in a state with an enabled output or
  internal transition, time cannot pass (outputs and internal actions cannot
  be delayed), so its Markovian transitions can never fire and are removed.
* :func:`eliminate_vanishing_chains` — a state whose only behaviour is a
  single internal (tau) transition (apart from input self-loops) is occupied
  for zero time and is collapsed into its successor.

Both preserve weak bisimilarity of the model within the contexts that
arise from Arcade models (see DESIGN.md, "Key semantic decisions").
"""

from __future__ import annotations

import numpy as np

from ..ioimc import IOIMC
from ..ioimc.indexed import InteractiveCSR, MarkovianCSR
from ..names import select
from ..nputil import csr_indptr, dedupe_packed_triples, gather_row_indices


def maximal_progress_cut(automaton: IOIMC) -> IOIMC:
    """Remove Markovian transitions from unstable states.

    A state is *unstable* when it enables an output or internal transition;
    such transitions are urgent, hence no exponential delay can ever elapse in
    the state.
    """
    index = automaton.index()
    markovian_csr = index.markovian_csr
    keep = index.stable_flags[markovian_csr.source]
    if bool(keep.all()):
        return automaton
    source = markovian_csr.source[keep]
    # The interactive columns are untouched and shared.
    return IOIMC.from_tables(
        automaton.name,
        automaton.signature,
        automaton.initial,
        index.interactive_csr,
        MarkovianCSR(
            csr_indptr(source, automaton.num_states),
            source,
            markovian_csr.rate[keep],
            markovian_csr.target[keep],
        ),
        automaton.labels,
        automaton.name_source,
    )


def eliminate_vanishing_chains(automaton: IOIMC) -> IOIMC:
    """Collapse states whose only real behaviour is a single tau transition.

    A state qualifies when its outgoing transitions consist of exactly one
    internal transition (to some state ``t``), no Markovian transitions and no
    interactive transitions other than pure input self-loops.  Such a state is
    left immediately and unobservably, so it can be identified with ``t``.
    Chains of such states are followed transitively; tau-cycles are left
    untouched (they never occur in Arcade models but must not crash).

    Labels of eliminated states are *not* transferred: a vanishing state is
    occupied for zero time, so its atomic propositions never contribute to
    any measure (and copying them onto the tangible successor would wrongly
    mark, e.g., the fully repaired state as ``down`` just because the repair
    announcements passed through a momentarily-failed configuration).
    """
    if not automaton.signature.internals:
        return automaton  # no internal actions, hence no vanishing chains
    index = automaton.index()
    interactive_csr = index.interactive_csr
    markovian_csr = index.markovian_csr
    num_states = automaton.num_states
    states = np.arange(num_states, dtype=np.int64)

    # Vanishing detection, one pass over the edge arrays: no Markovian row,
    # exactly one internal transition (not a self-loop), and every other
    # interactive transition is an input self-loop.
    source = interactive_csr.source
    target = interactive_csr.target
    internal_edge = index.internal_flags[interactive_csr.action]
    input_self_loop = index.input_flags[interactive_csr.action] & (target == source)
    disqualifying = ~internal_edge & ~input_self_loop
    has_markovian = markovian_csr.indptr[1:] > markovian_csr.indptr[:-1]
    single_target = np.full(num_states, -1, dtype=np.int64)
    single_target[source[internal_edge]] = target[internal_edge]
    vanishing = (
        ~has_markovian
        & (np.bincount(source[internal_edge], minlength=num_states) == 1)
        & (np.bincount(source[disqualifying], minlength=num_states) == 0)
        & (single_target != states)
    )
    if not vanishing.any():
        return automaton

    # Follow chains transitively by pointer doubling; states on tau-cycles
    # never converge and fall back to the scalar walk below (they resolve to
    # themselves, i.e. are kept — cycles never occur in Arcade models).
    resolved = np.where(vanishing, single_target, states)
    for _ in range(max(int(num_states).bit_length(), 1) + 1):
        hopped = resolved[resolved]
        if np.array_equal(hopped, resolved):
            break
        resolved = hopped
    unresolved = np.flatnonzero(vanishing[resolved])
    if len(unresolved):
        redirect = {
            int(state): int(single_target[state])
            for state in np.flatnonzero(vanishing).tolist()
        }
        for state in unresolved.tolist():
            walked, seen = state, set()
            while walked in redirect and walked not in seen:
                seen.add(walked)
                walked = redirect[walked]
            resolved[state] = walked

    # States on a tau-cycle resolve to themselves; treat them as kept.
    kept = np.flatnonzero(resolved == states)
    num_kept = len(kept)
    mapping = np.full(num_states, -1, dtype=np.int64)
    mapping[kept] = np.arange(num_kept, dtype=np.int64)
    mapping = mapping[resolved]  # old state -> new state, through its chain

    picked = gather_row_indices(interactive_csr.indptr, kept)
    new_src, action, new_tgt = dedupe_packed_triples(
        mapping[interactive_csr.source[picked]],
        interactive_csr.action[picked].astype(np.int64),
        mapping[interactive_csr.target[picked]],
        len(index.actions),
        num_kept,
    )
    picked = gather_row_indices(markovian_csr.indptr, kept)
    counts = markovian_csr.indptr[kept + 1] - markovian_csr.indptr[kept]
    new_msrc = np.repeat(np.arange(num_kept, dtype=np.int64), counts)
    new_mrate = markovian_csr.rate[picked]
    new_mtgt = mapping[markovian_csr.target[picked]]
    # Labels of eliminated states are dropped (see above); kept states map
    # one-to-one, so their label sets carry over unchanged.
    labels = {
        int(mapping[old]): props
        for old, props in automaton.labels.items()
        if resolved[old] == old
    }
    reduced = IOIMC.from_tables(
        automaton.name,
        automaton.signature,
        int(mapping[automaton.initial]),
        InteractiveCSR.from_edges(new_src, action, new_tgt, num_kept),
        MarkovianCSR.from_edges(new_msrc, new_mrate, new_mtgt, num_kept),
        labels,
        select(automaton.name_source, kept),
    )
    return reduced.restrict_to_reachable()


__all__ = [
    "maximal_progress_cut",
    "eliminate_vanishing_chains",
]
