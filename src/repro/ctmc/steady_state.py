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

#: Largest accepted ``||pi Q||_inf`` of a stationary solve (GTH or sparse),
#: relative to the sub-chain's largest exit rate.
_RESIDUAL_TOLERANCE = 1e-10


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
    component_of = np.full(ctmc.num_states, -1, dtype=np.int64)
    for index, component in enumerate(bsccs):
        component_of[component] = index
    initial = ctmc.initial_distribution
    # Mass that already starts inside a BSCC stays there.
    starts_inside = np.flatnonzero((initial > 0) & (component_of >= 0))
    weights = np.bincount(
        component_of[starts_inside], weights=initial[starts_inside], minlength=len(bsccs)
    ).astype(np.float64, copy=False)  # int64 when no mass starts inside
    transient = np.flatnonzero(component_of < 0)
    size = len(transient)
    if not size:
        return weights
    position = np.full(ctmc.num_states, -1, dtype=np.int64)
    position[transient] = np.arange(size)
    source, rate, target = ctmc.edge_arrays()
    leaving = component_of[source] < 0
    source, rate, target = position[source[leaving]], rate[leaving], target[leaving]
    exit_rates = np.bincount(source, weights=rate, minlength=size)
    if np.any(exit_rates <= 0):
        raise AnalysisError("a transient state has no outgoing transition")
    inside = component_of[target] < 0
    into = ~inside
    into_bscc = np.bincount(
        source[into] * len(bsccs) + component_of[target[into]],
        weights=rate[into],
        minlength=size * len(bsccs),
    ).reshape(size, len(bsccs))
    # Embedded jump chain: P = R / exit, absorption solves (I - P_TT) x = P_TB.
    scale = 1.0 / exit_rates
    rows = source[inside]
    p_tt = sparse.csr_matrix(
        (rate[inside] * scale[rows], (rows, position[target[inside]])),
        shape=(size, size),
    )
    p_tb = into_bscc * scale[:, None]
    system = sparse.identity(size, format="csc") - p_tt.tocsc()
    solution = sparse_linalg.spsolve(system, p_tb)
    solution = np.atleast_2d(solution)
    if solution.shape != (size, len(bsccs)):
        solution = solution.reshape(size, len(bsccs))
    weights += initial[transient] @ solution
    return weights


def stationary_of_irreducible(ctmc: CTMC, states: list[int]) -> np.ndarray:
    """Stationary distribution of the irreducible sub-chain induced by ``states``.

    Either solver's result must satisfy ``pi Q = 0`` to within
    :data:`_RESIDUAL_TOLERANCE` times the sub-chain's largest exit rate
    (:func:`_check_residual`).
    """
    if len(states) == 1:
        return np.array([1.0])
    if len(states) <= _GTH_LIMIT:
        stationary = _gth(ctmc.rate_matrix()[states][:, states].toarray())
        _check_residual("GTH", stationary, *_transposed_generator(ctmc, states))
        return stationary
    return _sparse_stationary(ctmc, states)


def _gth(rates: np.ndarray) -> np.ndarray:
    """Grassmann-Taksar-Heyman elimination (no subtractions, very stable).

    Eliminating state ``n`` adds ``outer(col, row) / total`` to the leading
    ``n x n`` block.  Only the rectangle spanned by the first and last
    nonzero of ``col`` and of ``row`` is updated: every entry outside it
    would receive ``(0.0 * x) / total == +0.0``, and adding that to a finite
    non-negative entry leaves it unchanged, so the result is bit-identical
    to the dense update at a fraction of the work on sparse chains.
    """
    size = rates.shape[0]
    matrix = rates.copy().astype(float)
    np.fill_diagonal(matrix, 0.0)
    for n in range(size - 1, 0, -1):
        total = matrix[n, :n].sum()
        if total <= 0:
            raise AnalysisError("GTH elimination hit a state with no backward rate; "
                                "the sub-chain is not irreducible")
        col, row = matrix[:n, n], matrix[n, :n]
        rows, cols = np.flatnonzero(col), np.flatnonzero(row)
        if rows.size and cols.size:
            r0, r1 = rows[0], rows[-1] + 1
            c0, c1 = cols[0], cols[-1] + 1
            matrix[r0:r1, c0:c1] += np.outer(col[r0:r1], row[c0:c1]) / total
        matrix[:n, n] /= total
    solution = np.zeros(size)
    solution[0] = 1.0
    for n in range(1, size):
        solution[n] = solution[:n] @ matrix[:n, n]
    return solution / solution.sum()


def _transposed_generator(
    ctmc: CTMC, states: list[int]
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """``Q^T`` and the exit rates of the sub-chain on ``states``."""
    size = len(states)
    source, rate, target = ctmc.edge_arrays()
    position = np.full(ctmc.num_states, -1, dtype=np.int64)
    position[states] = np.arange(size)
    inside = (position[source] >= 0) & (position[target] >= 0)
    source, rate, target = position[source[inside]], rate[inside], position[target[inside]]
    # bincount accumulates in edge order, like the scalar loop it replaces
    # (but yields int64 when no edge is inside, hence the diagonal's dtype).
    exit_rates = np.bincount(source, weights=rate, minlength=size)
    generator_t = sparse.csr_matrix(
        (rate, (target, source)), shape=(size, size)
    ) - sparse.diags(exit_rates, dtype=np.float64)
    return generator_t, exit_rates


def _balance_system(
    ctmc: CTMC, states: list[int]
) -> tuple[sparse.csc_matrix, sparse.csr_matrix, np.ndarray]:
    """Global balance equations ``Q^T pi = 0`` of the sub-chain on ``states``,
    with the last equation replaced by the normalisation ``sum(pi) = 1``.

    Also returns the sub-chain's ``Q^T`` and exit rates, for the residual check.
    """
    size = len(states)
    generator_t, exit_rates = _transposed_generator(ctmc, states)
    normalisation = sparse.csr_matrix(
        (np.ones(size), np.arange(size), [0, size]), shape=(1, size)
    )
    system = sparse.vstack([generator_t[:-1, :], normalisation]).tocsc()
    return system, generator_t, exit_rates


def _sparse_stationary(ctmc: CTMC, states: list[int]) -> np.ndarray:
    """Solve the global balance equations of a large irreducible sub-chain."""
    system, generator_t, exit_rates = _balance_system(ctmc, states)
    rhs = np.zeros(len(states))
    rhs[-1] = 1.0
    solution = sparse_linalg.spsolve(system, rhs)
    solution = np.maximum(solution, 0.0)
    total = solution.sum()
    if total <= 0 or not np.isfinite(total):
        raise AnalysisError("sparse stationary solve failed")
    stationary = solution / total
    _check_residual("sparse", stationary, generator_t, exit_rates)
    return stationary


def _check_residual(
    solver: str,
    stationary: np.ndarray,
    generator_t: sparse.csr_matrix,
    exit_rates: np.ndarray,
) -> None:
    """Raise unless ``||pi Q||_inf`` is within :data:`_RESIDUAL_TOLERANCE`
    times the largest exit rate.  The check only reads ``stationary``."""
    residual = float(np.abs(generator_t @ stationary).max())
    bound = _RESIDUAL_TOLERANCE * float(exit_rates.max())
    if not residual <= bound:
        raise AnalysisError(
            f"{solver} stationary solve is inaccurate: residual ||pi Q||_inf = "
            f"{residual:.3e} exceeds {bound:.3e} ({_RESIDUAL_TOLERANCE:g} x the "
            "largest exit rate)"
        )


__all__ = [
    "steady_state_distribution",
    "bottom_strongly_connected_components",
    "absorption_probabilities",
    "stationary_of_irreducible",
]
