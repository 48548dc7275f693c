"""Weak (tau-abstracting) bisimulation minimisation for I/O-IMCs.

CADP's compositional aggregation reduces intermediate models modulo
*branching/weak* bisimulation, which abstracts from internal (tau) steps.
This module provides a partition-refinement implementation of a weak
bisimulation for I/O-IMCs under the maximal-progress assumption:

* states must carry the same atomic propositions;
* a visible move ``s --a--> s'`` must be matched by a weak move
  ``t ==tau*== a ==tau*==> t'`` into the same class;
* a tau move must be matched by a (possibly empty) sequence of tau moves into
  the same class;
* stable states (no urgent transition enabled) must agree on the cumulative
  Markovian rate into every class, and a state must be able to reach a stable
  state by tau moves iff its partner can, ending in the same class.

Algorithm
---------
Everything that does not depend on the evolving partition is computed exactly
once, up front, from the automaton's :class:`~repro.ioimc.TransitionIndex`:

* the tau-closure of every state (the seed recomputed signatures over it
  every refinement round);
* the weak visible moves ``tau* a tau*`` of every state, keyed by interned
  integer action ids;
* for every Markovian target, the *attribution states* whose class receives
  the rate (see below);
* the dependency relation "state ``s``'s signature reads ``block_of[x]``",
  inverted into the observer CSR the vectorised worklist engine of
  :mod:`repro.lumping.refinement` needs.

The precomputed relations are flattened into CSR edge arrays, and each
refinement round encodes a whole batch of signatures as ``int64`` keys —
``action_id * num_blocks + block_of[post]`` for a weak move,
``block_of[post]`` for a tau landing, and a two-stage
``(block_of[post], rate-profile id)`` key for the stable Markovian
behaviour, where the rate profiles themselves are grouped per round with the
same ``np.unique``-based set grouping.  Only the blocks touched by the
previous split are re-examined.  The per-round full recomputation of the
seed (quadratic in practice) is gone; total work is near-linear in the
precomputed dependency structure.

Markovian rate attribution
--------------------------
A Markovian move ``p --rate--> t`` of a stable state ``p`` may be followed by
internal steps before the next observable point.  The rate is attributed to
the class of the states where the internal moves are *exhausted*: the
tau-sinks reachable from ``t`` (or, on a tau-cycle without sinks, the whole
closure).  When those attribution states span several classes the internal
branching is genuinely nondeterministic and no single class can receive the
rate; this raises :class:`~repro.errors.LumpingError` instead of silently
picking an arbitrary class (the seed attributed the rate to the
maximum-numbered reachable block, which mis-states the Markovian behaviour
of tau-nondeterministic models).

The tau closure (one CSR table,
:meth:`~repro.ioimc.indexed.TransitionIndex.tau_closure_csr`), the per-round
rate-profile grouping and the quotient construction are shared with the
branching engine (:mod:`repro.lumping.branching`), the latter two through
:mod:`repro.lumping.closure`; every precomputed relation above is derived
from the closure with array operations, no per-state Python loop.  The
two engines differ in which tau steps they abstract from (any tau here, only
*inert* — class-internal — tau there) and in where a Markovian rate lands
(tau-sinks of the target here, the direct target there).
"""

from __future__ import annotations

import numpy as np

from ..errors import LumpingError
from ..ioimc import IOIMC
from ..nputil import (
    csr_indptr,
    dedupe_packed_triples,
    gather_row_indices,
    unique_sorted,
)
from ..telemetry.trace import span as telemetry_span
from .closure import markovian_profile_ids, quotient_modulo_inert_tau
from .partition import Partition, label_codes
from .refinement import refine_partition_vectorized
from .strong import LumpingResult


def weak_bisimulation_partition(automaton: IOIMC) -> Partition:
    """Compute a weak-bisimulation partition of ``automaton``."""
    index = automaton.index()
    interactive_csr = index.interactive_csr
    markovian_csr = index.markovian_csr()
    stable_flags = index.stable_flags
    num_states = automaton.num_states
    num_actions = len(index.actions)
    all_states = np.arange(num_states, dtype=np.int64)

    # -------------------------------------------------------------- #
    # partition-independent precomputation (once, not per round)
    # -------------------------------------------------------------- #
    closure_indptr, closure_post = index.tau_closure_csr()
    closure_counts = np.diff(closure_indptr)
    closure_owner = np.repeat(all_states, closure_counts)

    # Weak visible moves tau* a tau*: deduplicated (state, action_id, landing)
    # triples, sorted — a visible edge of every closure member, landing on
    # every member of its target's closure.
    visible_edge = index.visible_flags[interactive_csr.action]
    vis_indptr = csr_indptr(interactive_csr.source[visible_edge], num_states)
    vis_action = interactive_csr.action[visible_edge].astype(np.int64)
    vis_tgt = interactive_csr.target[visible_edge]
    picked = gather_row_indices(vis_indptr, closure_post)
    move_owner = np.repeat(closure_owner, np.diff(vis_indptr)[closure_post])
    move_target = vis_tgt[picked]
    landing_counts = closure_counts[move_target]
    move_src, move_action, move_post = dedupe_packed_triples(
        np.repeat(move_owner, landing_counts),
        np.repeat(vis_action[picked], landing_counts),
        closure_post[gather_row_indices(closure_indptr, move_target)],
        num_actions,
        num_states,
    )
    move_indptr = csr_indptr(move_src, num_states)

    # Stable states reachable by tau* from every state.
    stable_pair = stable_flags[closure_post]
    stable_indptr = csr_indptr(closure_owner[stable_pair], num_states)
    stable_post = closure_post[stable_pair]

    # For every state t, the attribution states whose class receives a rate
    # into t: the tau-sinks of t's closure (the whole closure on sink-free
    # tau-cycles).  Every row is non-empty, its first entry the smallest.
    internal_edge = index.internal_flags[interactive_csr.action]
    tau_sink = np.bincount(
        interactive_csr.source[internal_edge], minlength=num_states
    ) == 0
    sink_pair = tau_sink[closure_post]
    has_sink = np.bincount(closure_owner[sink_pair], minlength=num_states) > 0
    attributed = sink_pair | ~has_sink[closure_owner]
    attribution_owner = closure_owner[attributed]
    attribution_post = closure_post[attributed]
    attribution_indptr = csr_indptr(attribution_owner, num_states)
    first_attribution = attribution_post[attribution_indptr[:-1]]

    # Markovian rows of stable states, with the first attribution state of
    # every target.  For a model that admits a weak partition at all, every
    # attribution state of a target sits in the same block at every stage of
    # the refinement (blocks only ever split), so reading one representative
    # is equivalent to reading them all; genuinely ambiguous models are
    # rejected by the validation pass below.
    rate_first_landing = np.zeros(markovian_csr.num_edges, dtype=np.int64)
    stable_edge = stable_flags[markovian_csr.source]
    rate_first_landing[stable_edge] = first_attribution[
        markovian_csr.target[stable_edge]
    ]

    def signature_edges(
        block: np.ndarray, num_blocks: int, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sources: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        # Weak visible moves: (action, landing block).
        picked = gather_row_indices(move_indptr, states)
        counts = move_indptr[states + 1] - move_indptr[states]
        sources.append(np.repeat(states, counts))
        codes.append(move_action[picked] * num_blocks + block[move_post[picked]])
        # Tau landings: the set of blocks reachable by internal moves.
        tau_base = num_actions * num_blocks
        picked = gather_row_indices(closure_indptr, states)
        counts = closure_indptr[states + 1] - closure_indptr[states]
        sources.append(np.repeat(states, counts))
        codes.append(tau_base + block[closure_post[picked]])
        # Stable Markovian behaviour: (block of the stable post, profile id),
        # where a profile is the set of (landing block, quantised cumulative
        # rate) pairs of one stable post — grouped per round with the same
        # np.unique-based set grouping the engine itself uses.
        picked = gather_row_indices(stable_indptr, states)
        counts = stable_indptr[states + 1] - stable_indptr[states]
        post_of_pair = stable_post[picked]
        pair_source = np.repeat(states, counts)
        posts = unique_sorted(post_of_pair)
        profile_of_post, profile_groups = markovian_profile_ids(
            posts, markovian_csr, rate_first_landing, block, num_blocks, num_states
        )
        stable_base = tau_base + num_blocks
        sources.append(pair_source)
        codes.append(
            stable_base
            + block[post_of_pair] * profile_groups
            + profile_of_post[post_of_pair]
        )
        return np.concatenate(sources), np.concatenate(codes)

    # Dependency relation: which states' blocks does sig(state) read?  The
    # tau-closure covers the stable posts; the Markovian profiles additionally
    # read the (representative) attribution landing of every rate.
    landing_reads = gather_row_indices(markovian_csr.indptr, stable_post)
    reader = np.concatenate(
        [
            np.repeat(all_states, np.diff(move_indptr)),
            closure_owner,
            np.repeat(
                np.repeat(all_states, np.diff(stable_indptr)),
                np.diff(markovian_csr.indptr)[stable_post],
            ),
        ]
    )
    read = np.concatenate(
        [move_post, closure_post, rate_first_landing[landing_reads]]
    )
    packed = unique_sorted(read * num_states + reader)
    read, reader = np.divmod(packed, num_states)
    observer_indptr = csr_indptr(read, num_states)

    partition = refine_partition_vectorized(
        num_states,
        label_codes(automaton),
        signature_edges,
        (observer_indptr, reader),
    )

    # The refinement reads one representative attribution landing per
    # Markovian target, so a genuinely nondeterministic (ambiguous)
    # attribution goes unnoticed during refinement.  Blocks only ever split,
    # hence any ambiguity persists into the final partition: one validation
    # pass over the stable states' rates catches every case, reported for
    # the first offending edge in state order.
    block = np.asarray(partition.block_of, dtype=np.int64)
    split = block[attribution_post] != block[first_attribution[attribution_owner]]
    ambiguous = np.zeros(num_states, dtype=bool)
    ambiguous[attribution_owner[split]] = True
    offending = np.flatnonzero(stable_edge & ambiguous[markovian_csr.target])
    if len(offending):
        edge = int(offending[0])
        target = int(markovian_csr.target[edge])
        landings = attribution_post[
            attribution_indptr[target] : attribution_indptr[target + 1]
        ]
        raise _ambiguous_attribution(
            automaton,
            int(markovian_csr.source[edge]),
            float(markovian_csr.rate[edge]),
            target,
            set(block[landings].tolist()),
        )
    return partition


def _ambiguous_attribution(
    automaton: IOIMC, source: int, rate: float, target: int, landing_blocks: set[int]
) -> LumpingError:
    return LumpingError(
        f"{automaton.name}: Markovian transition "
        f"{automaton.state_name(source)} --{rate}--> "
        f"{automaton.state_name(target)} reaches {len(landing_blocks)} distinct "
        "equivalence classes via nondeterministic internal branching; the rate "
        "cannot be attributed to a single class (the model is not tau-confluent)"
    )


def minimize_weak(automaton: IOIMC) -> LumpingResult:
    """Minimise ``automaton`` modulo the weak bisimulation described above.

    The quotient follows the branching-bisimulation recipe
    (:func:`repro.lumping.closure.quotient_modulo_inert_tau`, built on CSR
    arrays): internal moves that stay inside an equivalence class are
    dropped, and the Markovian behaviour of a class is taken from its first
    *stable* member (a class containing a stable state represents the
    tangible behaviour reached after exhausting the class's internal moves).
    Classes unreachable from the initial class are dropped; their states map
    to ``-1`` in ``block_of_state``.
    """
    with telemetry_span("reduce.weak", states=automaton.num_states) as reduce_span:
        partition = weak_bisimulation_partition(automaton)
        result = quotient_modulo_inert_tau(automaton, partition)
        reduce_span.set(blocks=partition.num_blocks)
        return result


__all__ = ["minimize_weak", "weak_bisimulation_partition"]
