"""Branching-bisimulation minimisation for I/O-IMCs.

The paper's tool chain reduces every intermediate model with CADP's
*branching*-bisimulation minimisation; this module supplies that third
``reduction=`` mode next to the strong and weak engines.  Branching
bisimulation (van Glabbeek & Weijland) abstracts from internal (tau) steps
like weak bisimulation, but only from *inert* ones — tau moves that stay
inside the current equivalence class — so it preserves the branching
structure of a process:

* states must carry the same atomic propositions;
* a move ``s --a--> s'`` must be matched by ``t ==inert tau*==> t^ --a--> t'``
  with ``t^`` still in the class of ``t`` and ``t'`` in the class of ``s'``
  (a tau move into the own class is inert and needs no match);
* under maximal progress, a state must be able to reach a *stable* state by
  inert tau moves iff its partner can, and those stable states must agree on
  the cumulative Markovian rate into every class (rates attributed to the
  *direct* target's class — unlike the weak engine there is no tau-sink
  redistribution, hence no ambiguous-attribution failure mode).

Branching bisimilarity is finer than the weak relation of
:mod:`repro.lumping.weak` and coarser than strong bisimulation, so its
quotients sit between the two in size while preserving every measure the
pipeline computes.

Algorithm
---------
Signature refinement in the style of Blom & Orzan, run on the vectorised
worklist engine of :mod:`repro.lumping.refinement`.  Unlike the strong and
weak signatures, the branching signature depends on the evolving partition
through the *inert closure* — the states reachable by tau steps whose
endpoints share a block — so it cannot be precomputed once.  Instead, every
round recomputes, for the batch of re-examined states only, the inert
``(owner, member)`` pair set by frontier expansion over the inert tau edges
(tau edges are filtered against the current block assignment once per round,
then expanded by :func:`repro.nputil.reachable_pairs`), and encodes per
pair:

* ``action_id * num_blocks + block_of[target]`` for each visible move of a
  member;
* ``tau_base + block_of[target]`` for each *non-inert* tau move of a member;
* ``stable_base + profile_id(member)`` for each stable member, where the
  rate profiles are grouped per round by the shared
  :func:`repro.lumping.closure.markovian_profile_ids` with the rate landing
  on the direct Markovian target.

The observer relation handed to the worklist engine is the
partition-independent over-approximation built from the *full* tau closure
(:meth:`~repro.ioimc.indexed.TransitionIndex.tau_closure_csr`, the same
frontier expansion over every tau edge):
a state observes every member of its closure (so breaking an inert chain
re-examines it), every visible-move target of a closure member, and every
Markovian target of a stable closure member.

The scalar reference implementation (``branching_partition_reference`` in
``tests/test_branching.py``) performs the same refinement with per-state DFS
closures and frozenset signatures; it is the executable specification the
vectorised engine is differentially tested against, exactly as the strong
engine is pinned to the seed's round-based refinement.  Both produce the canonical first-occurrence
block numbering, so partitions can be compared entry by entry.
"""

from __future__ import annotations

import numpy as np

from ..ioimc import IOIMC
from ..nputil import csr_indptr, gather_row_indices, reachable_pairs, unique_sorted
from ..telemetry.trace import span as telemetry_span
from .closure import markovian_profile_ids, quotient_modulo_inert_tau
from .partition import Partition, label_codes
from .refinement import refine_partition_vectorized
from .strong import LumpingResult


def branching_bisimulation_partition(automaton: IOIMC) -> Partition:
    """Compute the coarsest branching-bisimulation partition of ``automaton``."""
    index = automaton.index()
    num_states = automaton.num_states
    num_actions = len(index.actions)
    interactive_csr = index.interactive_csr
    markovian_csr = index.markovian_csr
    stable_flags = index.stable_flags
    markovian_target = markovian_csr.target.astype(np.int64)

    # -------------------------------------------------------------- #
    # partition-independent edge families
    # -------------------------------------------------------------- #
    visible_edge = index.visible_flags[interactive_csr.action]
    vis_src = interactive_csr.source[visible_edge].astype(np.int64)
    vis_action = interactive_csr.action[visible_edge].astype(np.int64)
    vis_tgt = interactive_csr.target[visible_edge].astype(np.int64)
    vis_indptr = csr_indptr(vis_src, num_states)

    internal_edge = index.internal_flags[interactive_csr.action]
    tau_src = interactive_csr.source[internal_edge].astype(np.int64)
    tau_tgt = interactive_csr.target[internal_edge].astype(np.int64)
    tau_indptr = csr_indptr(tau_src, num_states)

    def inert_pairs(
        block: np.ndarray, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated ``(owner, member)`` pairs: ``member`` is reachable
        from ``owner`` by tau edges whose endpoints share a block.

        Because every traversed edge keeps the block and ``owner`` starts in
        its own block, all members of a pair lie in ``block[owner]``; the
        expansion therefore computes exactly the inert closure, tau-cycles
        included.
        """
        inert = block[tau_src] == block[tau_tgt]
        pairs = reachable_pairs(
            csr_indptr(tau_src[inert], num_states), tau_tgt[inert], states, num_states
        )
        return np.divmod(pairs, num_states)

    def signature_edges(
        block: np.ndarray, num_blocks: int, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        owner, member = inert_pairs(block, states)
        sources: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        # Visible moves of inert-closure members: (action, landing block).
        picked = gather_row_indices(vis_indptr, member)
        counts = vis_indptr[member + 1] - vis_indptr[member]
        sources.append(np.repeat(owner, counts))
        codes.append(vis_action[picked] * num_blocks + block[vis_tgt[picked]])
        # Non-inert tau moves of members: the blocks the class can leave into.
        tau_base = num_actions * num_blocks
        picked = gather_row_indices(tau_indptr, member)
        counts = tau_indptr[member + 1] - tau_indptr[member]
        tau_owner = np.repeat(owner, counts)
        landing = tau_tgt[picked]
        non_inert = block[landing] != block[tau_owner]
        sources.append(tau_owner[non_inert])
        codes.append(tau_base + block[landing[non_inert]])
        # Stable members reachable by inert taus: their quantised rate
        # profiles, attributed to the direct Markovian targets.  The element's
        # presence alone also separates states that can stabilise from states
        # that diverge without ever reaching a stable state.
        stable_pair = stable_flags[member]
        stable_owner = owner[stable_pair]
        stable_member = member[stable_pair]
        posts = unique_sorted(stable_member)
        profile_of_post, _ = markovian_profile_ids(
            posts, markovian_csr, markovian_target, block, num_blocks, num_states
        )
        stable_base = tau_base + num_blocks
        sources.append(stable_owner)
        codes.append(stable_base + profile_of_post[stable_member])
        return np.concatenate(sources), np.concatenate(codes)

    # Dependency relation over-approximated partition-independently via the
    # *full* tau closure (every inert closure is a subset of it): sig(s) may
    # read the block of any closure member (inertness of a chain through it),
    # of any visible-move target of a member, and of any Markovian target of
    # a stable member.
    closure_indptr, closure_post = index.tau_closure_csr()
    all_states = np.arange(num_states, dtype=np.int64)
    closure_owner = np.repeat(all_states, np.diff(closure_indptr))
    vis_counts = np.diff(vis_indptr)
    markovian_counts = np.diff(markovian_csr.indptr)
    stable_post = closure_post[stable_flags[closure_post]]
    reader = np.concatenate(
        [
            closure_owner,
            np.repeat(closure_owner, vis_counts[closure_post]),
            np.repeat(
                closure_owner[stable_flags[closure_post]],
                markovian_counts[stable_post],
            ),
        ]
    )
    read = np.concatenate(
        [
            closure_post,
            vis_tgt[gather_row_indices(vis_indptr, closure_post)],
            markovian_target[gather_row_indices(markovian_csr.indptr, stable_post)],
        ]
    )
    packed = unique_sorted(read * num_states + reader)
    read, reader = np.divmod(packed, num_states)
    observer_indptr = csr_indptr(read, num_states)

    return refine_partition_vectorized(
        num_states,
        label_codes(automaton),
        signature_edges,
        (observer_indptr, reader),
    )


def minimize_branching(automaton: IOIMC) -> LumpingResult:
    """Minimise ``automaton`` modulo branching bisimulation.

    The quotient is the shared tau-abstracting construction
    (:func:`repro.lumping.closure.quotient_modulo_inert_tau`), built on CSR
    arrays: inert tau moves are dropped, the interactive moves of a class
    are the union of its members' non-inert moves, the Markovian behaviour
    comes from the first stable member, and classes unreachable from the
    initial class are dropped (their states map to ``-1`` in
    ``block_of_state``).  Unlike the weak engine no attribution validation
    is needed — rates land on direct targets, which is never ambiguous.
    """
    with telemetry_span(
        "reduce.branching", states=automaton.num_states
    ) as reduce_span:
        partition = branching_bisimulation_partition(automaton)
        result = quotient_modulo_inert_tau(automaton, partition)
        reduce_span.set(blocks=partition.num_blocks)
        return result


__all__ = [
    "branching_bisimulation_partition",
    "minimize_branching",
]
