"""Strong bisimulation minimisation for I/O-IMCs.

Two states are strongly bisimilar when they carry the same atomic
propositions, enable exactly the same interactive transitions into the same
equivalence classes, and have the same cumulative Markovian rate into every
equivalence class.  Strong bisimilarity is finer than the weak/branching
notions used by CADP, so quotienting by it is always sound: every measure
defined on the I/O-IMC (and on the CTMC eventually extracted from it) is
preserved.

The implementation runs on the vectorised worklist engine of
:mod:`repro.lumping.refinement` over the flat CSR adjacency of
:class:`~repro.ioimc.indexed.TransitionIndex`: a strong interactive move is
encoded as the ``int64`` key ``action_id * num_blocks + block_of[target]``,
Markovian behaviour as a ``(target block, quantised cumulative rate)`` key,
and the states of the re-examined blocks are grouped by their key sets with
``np.unique``-based grouping instead of per-state Python tuples.  After a
block splits only the blocks containing predecessors of its states are
re-examined.  This replaces the seed's per-round full recomputation and runs
in near-linear time in the size of the transition system; the computed
partition (including block numbering) is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ioimc import IOIMC
from ..nputil import gather_row_indices
from ..telemetry.trace import span as telemetry_span
from .partition import Partition, label_codes
from .refinement import rate_profile_codes, refine_partition_vectorized


@dataclass(frozen=True)
class LumpingResult:
    """Outcome of a minimisation: the quotient and the state mapping.

    ``block_of_state[s]`` is the quotient state that state ``s`` of the
    minimised automaton belongs to.  The strong quotient keeps every class;
    the weak and branching quotients keep only the classes reachable from
    the initial class, and a state whose class was dropped maps to ``-1``.
    """

    quotient: IOIMC
    block_of_state: tuple[int, ...]

    @property
    def reduction_factor(self) -> float:
        """How many original states one quotient state represents on average."""
        if self.quotient.num_states == 0:
            return 1.0
        return len(self.block_of_state) / self.quotient.num_states

    @property
    def num_blocks(self) -> int:
        """Number of states of the quotient."""
        return self.quotient.num_states


def strong_bisimulation_partition(automaton: IOIMC) -> Partition:
    """Compute the coarsest strong-bisimulation partition of ``automaton``.

    States start grouped by their atomic propositions and are refined until
    every block agrees on enabled interactive moves per target block and on
    cumulative Markovian rates per target block (quantised to 10 significant
    digits, see :func:`repro.nputil.round_rates_to_ids`).
    """
    index = automaton.index()
    interactive = index.interactive_csr
    markovian = index.markovian_csr
    num_actions = len(index.actions)

    def signature_edges(
        block: np.ndarray, num_blocks: int, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Interactive moves: one code per (action, target block) pair.
        picked = gather_row_indices(interactive.indptr, states)
        move_src = interactive.source[picked].astype(np.int64)
        move_code = (
            interactive.action[picked].astype(np.int64) * num_blocks
            + block[interactive.target[picked]]
        )
        picked = gather_row_indices(markovian.indptr, states)
        if not len(picked):
            return move_src, move_code
        # Markovian behaviour: one code per (state, target block) with its
        # quantised cumulative rate, shifted past the interactive codes.
        rate_src, rate_code = rate_profile_codes(
            markovian.source[picked],
            block[markovian.target[picked]],
            markovian.rate[picked],
            num_blocks,
        )
        return (
            np.concatenate([move_src, rate_src]),
            np.concatenate([move_code, num_actions * num_blocks + rate_code]),
        )

    return refine_partition_vectorized(
        automaton.num_states,
        label_codes(automaton),
        signature_edges,
        index.predecessor_csr(),
    )


def quotient_by_partition(automaton: IOIMC, partition: Partition) -> IOIMC:
    """Build the quotient I/O-IMC for a (bisimulation) partition."""
    return automaton.relabel_states(partition.block_of, partition.num_blocks)


def minimize_strong(automaton: IOIMC) -> LumpingResult:
    """Minimise ``automaton`` modulo strong bisimulation."""
    with telemetry_span("reduce.strong", states=automaton.num_states) as reduce_span:
        partition = strong_bisimulation_partition(automaton)
        quotient = quotient_by_partition(automaton, partition)
        reduce_span.set(blocks=partition.num_blocks)
        return LumpingResult(quotient=quotient, block_of_state=tuple(partition.block_of))


__all__ = [
    "LumpingResult",
    "minimize_strong",
    "quotient_by_partition",
    "strong_bisimulation_partition",
]
