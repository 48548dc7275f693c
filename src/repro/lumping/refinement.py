"""Partition refinement engines shared by all minimisation passes.

The seed implementation refined by global rounds: every round recomputed the
signature of *every* state and re-grouped the whole state space, giving
``O(rounds * (states + transitions))`` work even when a round split a single
block.  PR 1 replaced it with the splitter-worklist engine
(:func:`refine_with_worklist`), which only re-examines blocks whose states
may have changed signature; per-state signatures were still built as Python
tuples and hashed through a dict.

This module now also provides the **vectorised** engine
(:func:`refine_partition_vectorized`) that the strong and weak minimisation
passes run on.  It keeps the worklist idea — only blocks containing an
*observer* of a state whose block id changed are re-examined — but evaluates
signatures for a whole batch of states at once over the flat CSR adjacency
arrays of :class:`~repro.ioimc.indexed.TransitionIndex`:

* a signature provider encodes every (state, signature-element) pair as an
  ``int64`` code — e.g. ``action_id * num_blocks + block_of[target]`` for a
  strong interactive move — with set semantics per state;
* states of the re-examined blocks are grouped by their code *sets* with
  ``np.unique``-based grouping (:func:`group_states_by_code_sets`): codes are
  deduplicated per state, then folded position-by-position, each fold one
  ``np.unique`` over the still-active states — total sort work proportional
  to the number of codes, never ``states x max_degree``;
* Markovian rates are summed per (state, target block) with ``np.bincount``
  in transition order and quantised exactly like the dict-based engines
  (``float(f"{rate:.9e}")``, applied to the unique sums only), so the two
  code paths group rates identically.

Both engines compute the same (unique) coarsest stable partition and
canonicalise block numbering to first-occurrence order over the state order
— exactly the numbering the seed's round-based implementation produced, so
either engine is a drop-in replacement, bit-identical downstream.

For the signature functionals used here (strong bisimulation, the weak
signature of :mod:`repro.lumping.weak`, ordinary CTMC lumpability) the
coarsest stable partition is unique, so the processing order of splits
cannot change the result, only the running time.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Sequence

import numpy as np

from ..nputil import first_occurrence_renumber, gather_row_indices, unique_sorted
from ..telemetry.trace import observe
from ..telemetry.trace import span as telemetry_span
from .partition import Partition

#: A signature function: ``signature(state, block_of) -> hashable key``.
SignatureFn = Callable[[int, Sequence[int]], Hashable]

#: A vectorised signature provider: ``(block, num_blocks, states) -> (src, code)``.
#: Given the current block assignment (``int64`` per state) and the sorted
#: array of states to evaluate, returns per-element ``int64`` arrays ``src``
#: (the state each code belongs to, restricted to ``states``) and ``code``
#: (a non-negative encoded signature element).  Set semantics: duplicate
#: ``(src, code)`` pairs are collapsed, order is irrelevant.
VectorSignatureFn = Callable[
    [np.ndarray, int, np.ndarray], tuple[np.ndarray, np.ndarray]
]


def refine_with_worklist(
    initial_keys: Sequence[Hashable],
    signature_of: SignatureFn,
    observers_of: Sequence[Sequence[int]],
) -> Partition:
    """Refine the partition induced by ``initial_keys`` to the coarsest
    partition stable under ``signature_of`` (scalar reference engine).

    Parameters
    ----------
    initial_keys:
        One hashable key per state; states with equal keys start in the same
        block (same contract as :meth:`Partition.from_keys`).
    signature_of:
        ``signature_of(state, block_of)`` returns the hashable refinement
        signature of ``state`` against the current block assignment.  It must
        be *monotone*: states with equal signatures under a finer stable
        partition also have equal signatures under any coarser one — all
        bisimulation-style signatures are.
    observers_of:
        For every state ``x``, the states whose signature reads
        ``block_of[x]`` (typically the predecessors of ``x``).  When a block
        splits, the blocks of the observers of its states are re-examined.
    """
    block_index: dict[Hashable, int] = {}
    block_of: list[int] = []
    for key in initial_keys:
        block_of.append(block_index.setdefault(key, len(block_index)))
    members: list[list[int]] = [[] for _ in range(len(block_index))]
    for state, block in enumerate(block_of):
        members[block].append(state)

    worklist: deque[int] = deque(
        block for block, states in enumerate(members) if len(states) > 1
    )
    queued: list[bool] = [len(states) > 1 for states in members]

    while worklist:
        block = worklist.popleft()
        queued[block] = False
        states = members[block]
        if len(states) <= 1:
            continue
        groups: dict[Hashable, list[int]] = {}
        for state in states:
            groups.setdefault(signature_of(state, block_of), []).append(state)
        if len(groups) == 1:
            continue

        # Split: the first group keeps the old block id, the rest get fresh
        # ids.  Insertion order of ``groups`` is first-occurrence order, so
        # the assignment is deterministic.
        group_iter = iter(groups.values())
        members[block] = next(group_iter)
        for group in group_iter:
            fresh = len(members)
            members.append(group)
            queued.append(False)
            for state in group:
                block_of[state] = fresh

        # Every state of the former block may now be distinguished from its
        # old block-mates, so any block containing an observer of any of them
        # must be re-examined.
        touched: set[int] = set()
        for group in groups.values():
            for state in group:
                for observer in observers_of[state]:
                    touched.add(block_of[observer])
        for candidate in touched:
            if not queued[candidate] and len(members[candidate]) > 1:
                queued[candidate] = True
                worklist.append(candidate)

    # Canonical numbering: first occurrence over the state order, matching
    # what iterated Partition.refine produced.
    renumber: dict[int, int] = {}
    for block in block_of:
        if block not in renumber:
            renumber[block] = len(renumber)
    return Partition([renumber[block] for block in block_of])


# ---------------------------------------------------------------------- #
# vectorised engine
# ---------------------------------------------------------------------- #
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

    Same contract (and same result, including block numbering) as
    :func:`refine_with_worklist`, with the signature function replaced by a
    batch provider and the observer lists by a CSR table:

    Parameters
    ----------
    num_states:
        Number of states being partitioned.
    initial_codes:
        One ``int64`` code per state; states with equal codes start in the
        same block, numbered by first occurrence exactly as
        :meth:`Partition.from_keys` numbers equal keys
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
    "refine_partition_vectorized",
    "refine_with_worklist",
]
