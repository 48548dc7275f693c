"""Test-only oracles for partition refinement, final lumping and the
absorbing-chain solvers.

These are the scalar implementations the array code of :mod:`repro.lumping`
and :mod:`repro.ctmc` replaced, kept as executable specifications:

* :func:`from_keys` / :func:`refine` — the round-based partition
  refinement: start from equal keys, then regroup every state by
  ``(block, signature)`` until nothing splits.  Blocks are numbered by first
  occurrence over the state order, exactly like
  :func:`repro.lumping.refinement.refine_partition_vectorized`;
* :func:`lump_reference` — final ordinary lumping with dict signatures
  (cumulative rate per target block, quantised with ``%.9e``) and a quotient
  built transition by transition, checked byte for byte against
  :func:`repro.ctmc.lump`;
* :func:`pair_rates_reference` — the dict accumulation the CTMC constructor
  used to store (pairs in first-occurrence order, rates summed in edge
  order, self-loops dropped);
* :func:`mean_time_to_failure_reference` and
  :func:`absorption_probabilities_reference` — the per-transition loops
  that assembled the two linear systems before they read edge columns.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc import CTMC
from repro.ctmc.lumping import CTMCLumpingResult
from repro.errors import AnalysisError
from repro.lumping.partition import Partition


# --------------------------------------------------------------------------- #
# round-based refinement
# --------------------------------------------------------------------------- #
def from_keys(keys: Sequence[Hashable]) -> Partition:
    """A partition whose blocks group states with equal keys."""
    block_index: dict[Hashable, int] = {}
    return Partition([block_index.setdefault(key, len(block_index)) for key in keys])


def refine(partition: Partition, key_of_state: Callable[[int], Hashable]) -> bool:
    """Split every block of ``partition`` in place by ``key_of_state``.

    Returns ``True`` when the partition changed.  States stay grouped with
    the states of their previous block that share the same key.
    """
    block_index: dict[tuple[int, Hashable], int] = {}
    new_block_of = [
        block_index.setdefault((old_block, key_of_state(state)), len(block_index))
        for state, old_block in enumerate(partition.block_of)
    ]
    changed = len(block_index) != partition.num_blocks
    partition.block_of = new_block_of
    partition.num_blocks = len(block_index)
    return changed


# --------------------------------------------------------------------------- #
# final lumping
# --------------------------------------------------------------------------- #
def lumping_partition_reference(ctmc: CTMC) -> Partition:
    """Coarsest ordinary-lumpability partition by round-based refinement."""
    partition = from_keys([ctmc.label_of(state) for state in range(ctmc.num_states)])
    successors: list[list[tuple[float, int]]] = [[] for _ in range(ctmc.num_states)]
    for source, rate, target in ctmc.transitions():
        successors[source].append((rate, target))

    def signature(state: int) -> tuple:
        rates: dict[int, float] = {}
        for rate, target in successors[state]:
            block = partition.block_of[target]
            rates[block] = rates.get(block, 0.0) + rate
        return tuple(sorted((block, float(f"{rate:.9e}")) for block, rate in rates.items()))

    while refine(partition, signature):
        pass
    return partition


def lump_reference(ctmc: CTMC) -> CTMCLumpingResult:
    """Ordinary-lumpability quotient built transition by transition."""
    partition = lumping_partition_reference(ctmc)
    block_of = partition.block_of
    num_blocks = partition.num_blocks

    representative: list[int | None] = [None] * num_blocks
    for state in range(ctmc.num_states):
        if representative[block_of[state]] is None:
            representative[block_of[state]] = state

    by_source: list[list[tuple[float, int]]] = [[] for _ in range(ctmc.num_states)]
    for source, rate, target in ctmc.transitions():
        by_source[source].append((rate, target))

    transitions: list[tuple[int, float, int]] = []
    for block, state in enumerate(representative):
        rates: dict[int, float] = {}
        for rate, target in by_source[state]:
            rates[block_of[target]] = rates.get(block_of[target], 0.0) + rate
        for target_block, rate in rates.items():
            if target_block != block:
                transitions.append((block, rate, target_block))

    initial = [0.0] * num_blocks
    for state, probability in enumerate(ctmc.initial_distribution):
        initial[block_of[state]] += float(probability)
    labels: dict[int, frozenset[str]] = {}
    for state in range(ctmc.num_states):
        props = ctmc.label_of(state)
        if props:
            labels[block_of[state]] = labels.get(block_of[state], frozenset()) | props
    names = [ctmc.state_name(state) for state in representative]
    quotient = CTMC(num_blocks, transitions, initial, labels, names)
    return CTMCLumpingResult(quotient=quotient, block_of_state=tuple(block_of))


# --------------------------------------------------------------------------- #
# CTMC edge storage
# --------------------------------------------------------------------------- #
def pair_rates_reference(
    transitions: Sequence[tuple[int, float, int]],
) -> list[tuple[int, int, float]]:
    """``(source, target, total rate)`` per pair, in first-occurrence order,
    accumulated in edge order with self-loops dropped."""
    rates: dict[tuple[int, int], float] = {}
    for source, rate, target in transitions:
        if source != target:
            rates[(source, target)] = rates.get((source, target), 0.0) + rate
    return [(source, target, rate) for (source, target), rate in rates.items()]


# --------------------------------------------------------------------------- #
# absorbing-chain solvers
# --------------------------------------------------------------------------- #
def mean_time_to_failure_reference(ctmc: CTMC, *, down_label: str = "down") -> float:
    """Expected time to the first ``down`` visit, system assembled per edge."""
    down_states = set(ctmc.states_with_label(down_label))
    if not down_states:
        return float("inf")
    transient = [state for state in range(ctmc.num_states) if state not in down_states]
    if not transient:
        return 0.0
    index = {state: position for position, state in enumerate(transient)}
    size = len(transient)
    rows, cols, data = [], [], []
    exit_to_anywhere = np.zeros(size)
    reaches_down = np.zeros(size, dtype=bool)
    for source, rate, target in ctmc.transitions():
        if source not in index:
            continue
        position = index[source]
        exit_to_anywhere[position] += rate
        if target in index:
            rows.append(position)
            cols.append(index[target])
            data.append(rate)
        else:
            reaches_down[position] = True
    if not reaches_down.any():
        return float("inf")
    negative_q = sparse.csr_matrix(
        (np.negative(data), (rows, cols)), shape=(size, size)
    ).tolil() if data else sparse.lil_matrix((size, size))
    for position in range(size):
        negative_q[position, position] += exit_to_anywhere[position]
    try:
        times = sparse_linalg.spsolve(negative_q.tocsc(), np.ones(size))
    except RuntimeError as error:
        raise AnalysisError(f"MTTF system could not be solved: {error}") from error
    times = np.asarray(times, dtype=float).reshape(size)
    if np.any(~np.isfinite(times)) or np.any(times < -1e-9):
        return float("inf")
    return float(ctmc.initial_distribution[transient] @ times)


def absorption_probabilities_reference(
    ctmc: CTMC, bsccs: list[list[int]]
) -> np.ndarray:
    """Probability of entering each BSCC, system assembled per edge."""
    in_bscc = {}
    for index, component in enumerate(bsccs):
        for state in component:
            in_bscc[state] = index
    transient = [state for state in range(ctmc.num_states) if state not in in_bscc]
    weights = np.zeros(len(bsccs))
    for state, probability in enumerate(ctmc.initial_distribution):
        if probability > 0 and state in in_bscc:
            weights[in_bscc[state]] += probability
    if not transient:
        return weights
    transient_index = {state: position for position, state in enumerate(transient)}
    exit_rates = np.zeros(len(transient))
    rows, cols, data = [], [], []
    into_bscc = np.zeros((len(transient), len(bsccs)))
    for source, rate, target in ctmc.transitions():
        if source not in transient_index:
            continue
        position = transient_index[source]
        exit_rates[position] += rate
        if target in transient_index:
            rows.append(position)
            cols.append(transient_index[target])
            data.append(rate)
        else:
            into_bscc[position, in_bscc[target]] += rate
    if np.any(exit_rates <= 0):
        raise AnalysisError("a transient state has no outgoing transition")
    scale = 1.0 / exit_rates
    p_tt = sparse.csr_matrix(
        (np.array(data) * scale[np.array(rows, dtype=int)], (rows, cols)),
        shape=(len(transient), len(transient)),
    ) if data else sparse.csr_matrix((len(transient), len(transient)))
    p_tb = into_bscc * scale[:, None]
    system = sparse.identity(len(transient), format="csc") - p_tt.tocsc()
    solution = np.atleast_2d(sparse_linalg.spsolve(system, p_tb))
    if solution.shape != (len(transient), len(bsccs)):
        solution = solution.reshape(len(transient), len(bsccs))
    initial_transient = np.array([ctmc.initial_distribution[state] for state in transient])
    weights += initial_transient @ solution
    return weights
