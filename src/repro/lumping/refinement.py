"""The partition-refinement engine shared by every minimisation pass.

:func:`refine_partition_vectorized` computes the coarsest stable partition
for strong, weak and branching bisimulation of I/O-IMCs and for ordinary
lumpability of the final CTMC (:mod:`repro.ctmc.lumping`).  It is a worklist
engine — only blocks containing an *observer* of a state whose block id
changed are re-examined — that evaluates signatures for a whole batch of
states at once over flat CSR adjacency arrays:

* a signature provider encodes every (state, signature-element) pair as an
  ``int64`` code — e.g. ``action_id * num_blocks + block_of[target]`` for a
  strong interactive move — with set semantics per state; any injective
  encoding works, because block numbering never depends on code values;
* states of the re-examined blocks are grouped by their code *sets* with
  ``np.unique``-based grouping (:func:`group_states_by_code_sets`): codes are
  deduplicated per state, then folded position-by-position, each fold one
  ``np.unique`` over the still-active states — total sort work proportional
  to the number of codes, never ``states x max_degree``;
* Markovian rates are summed per (state, landing block) with ``np.bincount``
  in transition order and quantised with ``float(f"{rate:.9e}")``, applied
  to the unique sums only (:func:`rate_profile_codes`, which every engine
  uses), so all notions group rates identically.

The result's blocks are numbered by first occurrence over the state order,
the numbering a round-based refinement (regroup every state by
``(block, signature)`` each round) produces.  Each round re-examines every
block such a full round could split, against the same partition, so the two
compute the same partition round by round (``tests/lumping_oracle.py`` keeps
the round-based one as the reference).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nputil import (
    first_occurrence_renumber,
    gather_row_indices,
    round_rates_to_ids,
    unique_sorted,
)
from ..telemetry.trace import observe
from ..telemetry.trace import span as telemetry_span
from .partition import Partition

#: A vectorised signature provider: ``(block, num_blocks, states) -> (src, code)``.
#: Given the current block assignment (``int64`` per state) and the sorted
#: array of states to evaluate, returns per-element ``int64`` arrays ``src``
#: (the state each code belongs to, restricted to ``states``) and ``code``
#: (a non-negative encoded signature element).  Set semantics: duplicate
#: ``(src, code)`` pairs are collapsed, order is irrelevant.
VectorSignatureFn = Callable[
    [np.ndarray, int, np.ndarray], tuple[np.ndarray, np.ndarray]
]


def _dedupe_state_codes(
    local: np.ndarray, code: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(local, code)`` pairs by local-then-code and drop duplicates."""
    if not len(local):
        return local, code
    code_span = int(code.max()) + 1
    if code_span <= (2**62) // max(int(local.max()) + 1, 1):
        combined = unique_sorted(local * code_span + code)
        return combined // code_span, combined % code_span
    order = np.lexsort((code, local))
    local, code = local[order], code[order]
    keep = np.empty(len(local), dtype=bool)
    keep[0] = True
    np.logical_or(np.diff(local) != 0, np.diff(code) != 0, out=keep[1:])
    return local[keep], code[keep]


def group_states_by_code_sets(
    num_rows: int,
    local: np.ndarray,
    code: np.ndarray,
    initial_group: np.ndarray,
) -> np.ndarray:
    """Group rows ``0..num_rows-1`` by ``(initial_group, {codes})``.

    ``local``/``code`` list the signature elements: row ``local[i]`` owns the
    element ``code[i]`` (``int64``, non-negative); duplicates are collapsed
    (set semantics).  Returns an ``int64`` group id per row; two rows share a
    group id iff they had equal ``initial_group`` entries and equal code sets.

    The grouping folds the (deduplicated, sorted) code sequence of every row
    into an evolving group id, one position at a time; each fold is a single
    ``np.unique`` over the rows that still have a code at that position, so
    the total sort work is proportional to the number of codes.  Rows that
    run out of codes at different lengths can never collide because the
    final grouping key includes the set size.
    """
    _, group = np.unique(initial_group, return_inverse=True)
    group = group.astype(np.int64)
    if not len(local):
        return group
    local, code = _dedupe_state_codes(local, code)
    counts = np.bincount(local, minlength=num_rows)
    starts = np.zeros(num_rows, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    code_span = int(code.max()) + 1

    active = np.flatnonzero(counts)
    position = 0
    while len(active):
        folded = group[active] * code_span + code[starts[active] + position]
        _, group[active] = np.unique(folded, return_inverse=True)
        position += 1
        active = active[counts[active] > position]
    # Distinguish rows by how many codes they had, then by the folded id.
    _, final = np.unique(group * (int(counts.max()) + 1) + counts, return_inverse=True)
    return final.astype(np.int64)


def rate_profile_codes(
    source: np.ndarray, landing_block: np.ndarray, rate: np.ndarray, num_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode cumulative rates per (state, landing block) as signature codes.

    Edge ``i`` moves ``rate[i]`` from state ``source[i]`` into block
    ``landing_block[i]``.  The rates of each (state, block) pair are summed in
    edge order with ``np.bincount`` and quantised by
    :func:`repro.nputil.round_rates_to_ids`.  Returns ``(state, code)`` with
    one entry per pair; two pairs share a code iff they land in the same
    block with the same quantised sum.  Codes lie in
    ``[0, num_blocks * distinct_sums)``.
    """
    pair = source.astype(np.int64) * num_blocks + landing_block
    unique_pairs, pair_index = np.unique(pair, return_inverse=True)
    rate_ids, distinct = round_rates_to_ids(
        np.bincount(pair_index, weights=rate, minlength=len(unique_pairs))
    )
    return (
        unique_pairs // num_blocks,
        (unique_pairs % num_blocks) * max(distinct, 1) + rate_ids,
    )


def refine_partition_vectorized(
    num_states: int,
    initial_codes: np.ndarray,
    signature_edges: VectorSignatureFn,
    observers: tuple[np.ndarray, np.ndarray],
) -> Partition:
    """Vectorised worklist refinement over encoded signature elements.

    Traced as a ``lumping.refine`` telemetry span (state count, refinement
    rounds, resulting blocks) when a telemetry session is active; the rounds
    also feed the ``lumping.refine_rounds`` histogram.

    Returns the coarsest partition that refines ``initial_codes`` and in
    which all members of a block have equal signatures, with blocks
    numbered by first occurrence over the state order.

    Parameters
    ----------
    num_states:
        Number of states being partitioned.
    initial_codes:
        One ``int64`` code per state; states with equal codes start in the
        same block, numbered by first occurrence
        (:func:`repro.lumping.partition.label_codes` builds them from the
        atomic propositions).
    signature_edges:
        Batch signature provider, see :data:`VectorSignatureFn`.  Codes must
        stay below ``2**40`` so they can be combined with block ids without
        ``int64`` overflow.
    observers:
        ``(indptr, sources)`` CSR table: for state ``x``, the states whose
        signature reads ``block_of[x]``
        (:meth:`repro.ioimc.indexed.TransitionIndex.predecessor_csr` for
        strong bisimulation).
    """
    with telemetry_span("lumping.refine", states=num_states) as refine_span:
        partition, rounds = _refine_vectorized(
            num_states, initial_codes, signature_edges, observers
        )
        refine_span.set(rounds=rounds, blocks=partition.num_blocks)
        observe("lumping.refine_rounds", rounds)
        return partition


def _refine_vectorized(
    num_states: int,
    initial_codes: np.ndarray,
    signature_edges: VectorSignatureFn,
    observers: tuple[np.ndarray, np.ndarray],
) -> tuple[Partition, int]:
    """The refinement loop itself; returns the partition and its round count."""
    if num_states == 0:
        return Partition([]), 0
    block = first_occurrence_renumber(initial_codes)
    num_blocks = int(block.max()) + 1
    observer_indptr, observer_sources = observers

    rounds = 0
    dirty = np.arange(num_states, dtype=np.int64)
    while len(dirty):
        # Re-examine only non-singleton blocks containing a dirty state.
        block_sizes = np.bincount(block, minlength=num_blocks)
        candidates = unique_sorted(block[dirty])
        candidates = candidates[block_sizes[candidates] > 1]
        if not len(candidates):
            break
        examined = np.zeros(num_blocks, dtype=bool)
        examined[candidates] = True
        states = np.flatnonzero(examined[block])  # ascending state order
        rounds += 1

        source, code = signature_edges(block, num_blocks, states)
        local = np.searchsorted(states, source)
        group = group_states_by_code_sets(len(states), local, code, block[states])

        # Assign block ids per group: within each old block, the group
        # containing the block's first member keeps the old id (so its states
        # do not count as changed), the rest get fresh consecutive ids.
        unique_groups, first_index, inverse = np.unique(
            group, return_index=True, return_inverse=True
        )
        owner = block[states[first_index]]
        order = np.argsort(first_index, kind="stable")
        _, owner_first = np.unique(owner[order], return_index=True)
        keeps_owner_id = np.zeros(len(unique_groups), dtype=bool)
        keeps_owner_id[order[owner_first]] = True
        new_ids = np.empty(len(unique_groups), dtype=np.int64)
        new_ids[keeps_owner_id] = owner[keeps_owner_id]
        fresh_groups = order[~keeps_owner_id[order]]  # deterministic order
        new_ids[fresh_groups] = num_blocks + np.arange(len(fresh_groups))
        num_blocks += len(fresh_groups)

        new_blocks = new_ids[inverse]
        changed = states[new_blocks != block[states]]
        block[states] = new_blocks
        if not len(changed):
            break
        # Next round: only states observing a changed state can re-split.
        touched = observer_sources[gather_row_indices(observer_indptr, changed)]
        dirty = unique_sorted(touched).astype(np.int64)

    return Partition(first_occurrence_renumber(block).tolist()), rounds


__all__ = [
    "group_states_by_code_sets",
    "rate_profile_codes",
    "refine_partition_vectorized",
]
