"""Steady-state (long-run) analysis of labelled CTMCs.

The long-run distribution is computed exactly, including for reducible
chains:

1. the bottom strongly connected components (BSCCs) of the transition graph
   are identified;
2. the probability of eventually being absorbed into each BSCC, starting from
   the initial distribution, is obtained from a sparse linear system;
3. the stationary distribution *within* each BSCC is computed with the
   numerically robust GTH elimination (for moderately sized classes) or a
   sparse direct solve of the global balance equations;
4. the pieces are combined into the overall long-run distribution.

For the irreducible chains produced by the repairable Arcade case studies
only steps 3 applies, but the general treatment makes the solver reusable for
models with absorbing failure states.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg
from scipy.sparse.csgraph import connected_components

from ..errors import AnalysisError
from .ctmc import CTMC

#: Largest BSCC size for which the dense GTH elimination is used.
_GTH_LIMIT = 1500


def steady_state_distribution(ctmc: CTMC) -> np.ndarray:
    """Long-run probability vector of ``ctmc`` from its initial distribution.

    The result is memoised on the chain (CTMCs are immutable after
    construction): every long-run measure of the same chain reuses one solve
    instead of re-running the cubic GTH elimination.  The returned array is
    marked read-only because it is shared between callers.
    """
    cached = getattr(ctmc, "_steady_state_cache", None)
    if cached is not None:
        return cached
    bsccs = bottom_strongly_connected_components(ctmc)
    if not bsccs:
        raise AnalysisError("the CTMC has no bottom strongly connected component")
    absorption = absorption_probabilities(ctmc, bsccs)
    distribution = np.zeros(ctmc.num_states)
    for weight, component in zip(absorption, bsccs):
        if weight <= 0.0:
            continue
        local = stationary_of_irreducible(ctmc, component)
        for state, probability in zip(component, local):
            distribution[state] += weight * probability
    total = distribution.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise AnalysisError(f"steady-state distribution does not sum to one ({total})")
    result = distribution / total
    result.setflags(write=False)
    ctmc._steady_state_cache = result
    return result


def bottom_strongly_connected_components(ctmc: CTMC) -> list[list[int]]:
    """All BSCCs of the CTMC's transition graph, as sorted state lists
    ordered by their smallest state."""
    rates = ctmc.rate_matrix().tocoo()
    num_components, component_of = connected_components(
        rates, directed=True, connection="strong"
    )
    source_component = component_of[rates.row]
    is_bottom = np.ones(num_components, dtype=bool)
    is_bottom[source_component[source_component != component_of[rates.col]]] = False
    # Bottom states grouped by component, ascending within each group.
    states = np.flatnonzero(is_bottom[component_of])
    states = states[np.argsort(component_of[states], kind="stable")]
    cuts = np.flatnonzero(np.diff(component_of[states])) + 1
    return sorted(
        (members.tolist() for members in np.split(states, cuts)),
        key=lambda members: members[0],
    )


def absorption_probabilities(ctmc: CTMC, bsccs: list[list[int]]) -> np.ndarray:
    """Probability of eventually entering each BSCC from the initial distribution."""
    in_bscc = {}
    for index, component in enumerate(bsccs):
        for state in component:
            in_bscc[state] = index
    transient = [state for state in range(ctmc.num_states) if state not in in_bscc]
    weights = np.zeros(len(bsccs))
    # Mass that already starts inside a BSCC stays there.
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
    # Embedded jump chain: P = R / exit, absorption solves (I - P_TT) x = P_TB.
    scale = 1.0 / exit_rates
    p_tt = sparse.csr_matrix(
        (np.array(data) * scale[np.array(rows, dtype=int)], (rows, cols)),
        shape=(len(transient), len(transient)),
    ) if data else sparse.csr_matrix((len(transient), len(transient)))
    p_tb = into_bscc * scale[:, None]
    system = sparse.identity(len(transient), format="csc") - p_tt.tocsc()
    solution = sparse_linalg.spsolve(system, p_tb)
    solution = np.atleast_2d(solution)
    if solution.shape != (len(transient), len(bsccs)):
        solution = solution.reshape(len(transient), len(bsccs))
    initial_transient = np.array(
        [ctmc.initial_distribution[state] for state in transient]
    )
    weights += initial_transient @ solution
    return weights


def stationary_of_irreducible(ctmc: CTMC, states: list[int]) -> np.ndarray:
    """Stationary distribution of the irreducible sub-chain induced by ``states``."""
    if len(states) == 1:
        return np.array([1.0])
    index = {state: position for position, state in enumerate(states)}
    if len(states) <= _GTH_LIMIT:
        rates = np.zeros((len(states), len(states)))
        for source, rate, target in ctmc.transitions():
            if source in index and target in index:
                rates[index[source], index[target]] += rate
        return _gth(rates)
    return _sparse_stationary(ctmc, states, index)


def _gth(rates: np.ndarray) -> np.ndarray:
    """Grassmann-Taksar-Heyman elimination (no subtractions, very stable)."""
    size = rates.shape[0]
    matrix = rates.copy().astype(float)
    np.fill_diagonal(matrix, 0.0)
    for n in range(size - 1, 0, -1):
        total = matrix[n, :n].sum()
        if total <= 0:
            raise AnalysisError("GTH elimination hit a state with no backward rate; "
                                "the sub-chain is not irreducible")
        matrix[:n, :n] += np.outer(matrix[:n, n], matrix[n, :n]) / total
        matrix[:n, n] /= total
    solution = np.zeros(size)
    solution[0] = 1.0
    for n in range(1, size):
        solution[n] = solution[:n] @ matrix[:n, n]
    return solution / solution.sum()


def _sparse_stationary(ctmc: CTMC, states: list[int], index: dict[int, int]) -> np.ndarray:
    """Solve the global balance equations of a large irreducible sub-chain."""
    size = len(states)
    rows, cols, data = [], [], []
    exit_rates = np.zeros(size)
    for source, rate, target in ctmc.transitions():
        if source in index and target in index:
            rows.append(index[target])
            cols.append(index[source])
            data.append(rate)
            exit_rates[index[source]] += rate
    generator_t = sparse.csr_matrix((data, (rows, cols)), shape=(size, size)).tolil()
    for position in range(size):
        generator_t[position, position] -= exit_rates[position]
    # Replace the last equation by the normalisation constraint.
    generator_t = generator_t.tocsr()
    system = sparse.vstack(
        [generator_t[:-1, :], sparse.csr_matrix(np.ones((1, size)))]
    ).tocsc()
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    solution = sparse_linalg.spsolve(system, rhs)
    solution = np.maximum(solution, 0.0)
    total = solution.sum()
    if total <= 0 or not np.isfinite(total):
        raise AnalysisError("sparse stationary solve failed")
    return solution / total


__all__ = [
    "steady_state_distribution",
    "bottom_strongly_connected_components",
    "absorption_probabilities",
    "stationary_of_irreducible",
]
