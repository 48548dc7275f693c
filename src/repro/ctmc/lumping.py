"""Ordinary lumping of labelled CTMCs.

After the compositional aggregation has produced the final CTMC, one more
ordinary-lumpability pass (respecting the labelling) can shrink the chain
further without changing any availability or reliability measure.  Two
states may be merged when they carry the same labels and have the same
cumulative rate into every block of the partition.

Ordinary lumpability is strong bisimulation of a Markov-only system, so the
partition comes from the same vectorised engine the I/O-IMC minimisers use
(:func:`repro.lumping.refinement.refine_partition_vectorized`): states start
grouped by :func:`~repro.lumping.partition.label_codes`, a state's signature
is its quantised cumulative rate per target block
(:func:`~repro.lumping.refinement.rate_profile_codes`), and its observers are
its predecessors.  The quotient is built from the edge columns as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lumping.partition import Partition, label_codes
from ..lumping.refinement import rate_profile_codes, refine_partition_vectorized
from ..names import select
from ..nputil import csr_indptr, gather_row_indices, unique_sorted
from ..telemetry.trace import span as telemetry_span
from .ctmc import CTMC


@dataclass(frozen=True)
class CTMCLumpingResult:
    """Quotient chain plus the block index of every original state."""

    quotient: CTMC
    block_of_state: tuple[int, ...]


def lumping_partition(ctmc: CTMC) -> Partition:
    """Coarsest ordinary-lumpability partition of ``ctmc``, with blocks
    numbered by first occurrence over the state order."""
    num_states = ctmc.num_states
    source, rate, target = ctmc.edge_arrays()
    # Successor CSR: edges grouped by source, in stored order within a row,
    # so rates into a block are summed in the chain's edge order.
    order = np.argsort(source, kind="stable")
    row_source, row_rate, row_target = source[order], rate[order], target[order]
    indptr = csr_indptr(row_source, num_states)
    # Observers: the distinct predecessors of every state.
    observed, observer = np.divmod(unique_sorted(target * num_states + source), num_states)

    def signature_edges(
        block: np.ndarray, num_blocks: int, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        picked = gather_row_indices(indptr, states)
        return rate_profile_codes(
            row_source[picked], block[row_target[picked]], row_rate[picked], num_blocks
        )

    return refine_partition_vectorized(
        num_states,
        label_codes(ctmc),
        signature_edges,
        (csr_indptr(observed, num_states), observer),
    )


def lump(ctmc: CTMC) -> CTMCLumpingResult:
    """Lump ``ctmc`` into its ordinary-lumpability quotient.

    Block ``b`` takes the transitions, name and labels of its first state
    (its representative): lumpability makes every member's cumulative rate
    into each other block equal (up to the ``%.9e`` quantisation), and rates
    into the block itself become self-loops, which the chain drops.  Traced as a ``ctmc.lump`` span
    (states in, blocks out).
    """
    with telemetry_span("ctmc.lump", states=ctmc.num_states) as lump_span:
        partition = lumping_partition(ctmc)
        block_of = np.asarray(partition.block_of, dtype=np.int64)
        num_blocks = partition.num_blocks
        # With first-occurrence numbering the representatives ascend with
        # their block, so edges sorted by source come out in block order.
        _, representative = np.unique(block_of, return_index=True)
        is_representative = np.zeros(ctmc.num_states, dtype=bool)
        is_representative[representative] = True
        source, rate, target = ctmc.edge_arrays()
        picked = np.argsort(source, kind="stable")
        picked = picked[is_representative[source[picked]]]
        quotient = CTMC.from_arrays(
            num_blocks,
            block_of[source[picked]],
            rate[picked],
            block_of[target[picked]],
            np.bincount(block_of, weights=ctmc.initial_distribution, minlength=num_blocks),
            {
                block: ctmc.labels[state]
                for block, state in enumerate(representative.tolist())
                if state in ctmc.labels
            },
            select(ctmc.name_source, representative),
        )
        lump_span.set(blocks=num_blocks)
        return CTMCLumpingResult(quotient=quotient, block_of_state=tuple(partition.block_of))


__all__ = ["CTMCLumpingResult", "lump", "lumping_partition"]
