"""Reliability-oriented analysis on absorbing CTMCs.

Reliability questions ("what is the probability that the system has not
failed by time t?") are answered on a variant of the chain in which every
failure state is made absorbing: once the set of ``down`` states is entered
the chain never leaves it, so the probability of being in a ``down`` state at
time ``t`` equals the probability of having failed at some point before
``t`` (the *unreliability*).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..errors import AnalysisError
from .ctmc import CTMC
from .transient import transient_distribution


def make_absorbing(ctmc: CTMC, states: list[int] | set[int]) -> CTMC:
    """Copy of ``ctmc`` with all transitions leaving ``states`` removed."""
    absorbing = np.zeros(ctmc.num_states, dtype=bool)
    absorbing[list(states)] = True
    source, rate, target = ctmc.edge_arrays()
    keep = ~absorbing[source]
    return CTMC.from_arrays(
        ctmc.num_states,
        source[keep],
        rate[keep],
        target[keep],
        ctmc.initial_distribution,
        ctmc.labels,
        ctmc.state_names,
    )


def unreliability(ctmc: CTMC, time: float, *, down_label: str = "down") -> float:
    """Probability that the chain reaches a ``down`` state within ``time``."""
    down_states = ctmc.states_with_label(down_label)
    if not down_states:
        return 0.0
    absorbing_chain = make_absorbing(ctmc, down_states)
    distribution = transient_distribution(absorbing_chain, time)
    return float(distribution[down_states].sum())


def reliability(ctmc: CTMC, time: float, *, down_label: str = "down") -> float:
    """Probability of no system failure within ``time`` (1 - unreliability)."""
    return 1.0 - unreliability(ctmc, time, down_label=down_label)


def mean_time_to_failure(ctmc: CTMC, *, down_label: str = "down") -> float:
    """Expected time until the first visit to a ``down`` state.

    Computed by solving the linear system ``(-Q_TT) m = 1`` on the transient
    (non-``down``) states, where ``Q_TT`` is the generator restricted to those
    states.  Returns ``inf`` when a ``down`` state is unreachable.
    """
    down = np.zeros(ctmc.num_states, dtype=bool)
    down[ctmc.states_with_label(down_label)] = True
    if not down.any():
        return float("inf")
    transient = np.flatnonzero(~down)
    size = len(transient)
    if not size:
        return 0.0
    position = np.full(ctmc.num_states, -1, dtype=np.int64)
    position[transient] = np.arange(size)
    source, rate, target = ctmc.edge_arrays()
    leaving = ~down[source]
    source, rate, target = position[source[leaving]], rate[leaving], target[leaving]
    if not down[target].any():
        return float("inf")
    inside = ~down[target]
    # -Q_TT: the negated rates between transient states plus the exit rates
    # (summed in edge order) on the diagonal; no entry is duplicated, since
    # the chain has one edge per pair and no self-loops.
    exit_rates = np.bincount(source, weights=rate, minlength=size)
    diagonal = np.flatnonzero(exit_rates)
    negative_q = sparse.csc_matrix(
        (
            np.concatenate([np.negative(rate[inside]), exit_rates[diagonal]]),
            (
                np.concatenate([source[inside], diagonal]),
                np.concatenate([position[target[inside]], diagonal]),
            ),
        ),
        shape=(size, size),
    )
    try:
        times = sparse_linalg.spsolve(negative_q, np.ones(size))
    except RuntimeError as error:  # pragma: no cover - singular system
        raise AnalysisError(f"MTTF system could not be solved: {error}") from error
    times = np.asarray(times, dtype=float).reshape(size)
    if np.any(~np.isfinite(times)) or np.any(times < -1e-9):
        return float("inf")
    return float(ctmc.initial_distribution[transient] @ times)


__all__ = ["make_absorbing", "unreliability", "reliability", "mean_time_to_failure"]
