"""Transient analysis of CTMCs by uniformisation.

``transient_distribution(ctmc, t)`` returns the state-probability vector at
time ``t`` starting from the chain's initial distribution.  The computation
uses the classical uniformisation (Jensen / randomisation) method:

    pi(t) = sum_k  PoissonPMF(k; Lambda * t) * pi(0) * P^k

with ``P = I + Q / Lambda`` and a truncation window chosen so that the
neglected Poisson mass is below a configurable error bound.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse, special

from ..errors import AnalysisError
from .ctmc import CTMC


def transient_distribution(
    ctmc: CTMC,
    time: float,
    *,
    initial: np.ndarray | None = None,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Probability vector of the chain at ``time``.

    Parameters
    ----------
    ctmc:
        The chain to analyse.
    time:
        Time horizon (``>= 0``).
    initial:
        Optional alternative initial distribution (defaults to the chain's).
    epsilon:
        Bound on the truncated Poisson probability mass.
    """
    if not np.isfinite(time) or time < 0:
        raise AnalysisError(
            f"transient analysis requires a finite non-negative time horizon, got {time}"
        )
    if not 0.0 < epsilon < 1.0:
        raise AnalysisError(
            f"the truncation bound epsilon must lie in (0, 1), got {epsilon}"
        )
    distribution = (
        np.array(ctmc.initial_distribution, dtype=float)
        if initial is None
        else np.asarray(initial, dtype=float)
    )
    if distribution.shape != (ctmc.num_states,):
        raise AnalysisError("initial distribution has the wrong length")
    if time == 0 or ctmc.num_transitions == 0:
        return distribution.copy()

    rate = ctmc.uniformization_rate()
    if rate <= 0:
        return distribution.copy()
    # ``current @ P`` would transpose ``P`` again on every step; stepping
    # with the transpose built once runs the same kernel on the same arrays.
    backward = _uniformized_matrix(ctmc, rate).transpose()
    left, right, weights = poisson_window(rate * time, epsilon)

    result = np.zeros_like(distribution)
    current = distribution.copy()
    for step in range(right + 1):
        if step >= left:
            result += weights[step - left] * current
        if step < right:
            current = backward @ current
    total = result.sum()
    if total <= 0 or not np.isfinite(total):
        raise AnalysisError("uniformisation produced an invalid distribution")
    # The truncation error only ever loses mass; renormalise it away.
    return result / total


def poisson_window(mean: float, epsilon: float) -> tuple[int, int, np.ndarray]:
    """Left/right truncation points and weights of a Poisson(mean) distribution.

    The returned weights cover ``left .. right`` inclusive, whose exact
    Poisson mass is at least ``1 - epsilon``.  The computed weights carry
    log-space rounding that grows with the mean, so from a mean of about 150
    (at ``epsilon=1e-12``) their sum can miss that bound by a few epsilon;
    :func:`transient_distribution` renormalises.  The quantiles and the
    probability mass function are the ``scipy.special`` expressions SciPy's
    Poisson distribution evaluates, so the window is byte-equal to one built
    on it without paying for loading it (half of ``import repro``).
    """
    if not (np.isfinite(mean) and mean >= 0):
        raise AnalysisError(
            f"the Poisson mean must be finite and non-negative, got {mean}"
        )
    if not 0.0 < epsilon < 1.0:
        raise AnalysisError(
            f"the truncation bound epsilon must lie in (0, 1), got {epsilon}"
        )
    if 1.0 - epsilon / 2.0 == 1.0:
        raise AnalysisError(
            f"the truncation bound epsilon={epsilon} is below double precision: "
            "1 - epsilon/2 rounds to 1"
        )
    if mean == 0:
        return 0, 0, np.array([1.0])
    left = _poisson_quantile(epsilon / 2.0, mean)
    right = _poisson_quantile(1.0 - epsilon / 2.0, mean)
    right = max(right, left + 1)
    ks = np.arange(left, right + 1)
    log_pmf = special.xlogy(ks, mean) - special.gammaln(ks + 1) - mean
    weights = np.clip(np.exp(log_pmf), 0.0, 1.0)
    return left, right, weights


def _poisson_quantile(q: float, mean: float) -> int:
    """Smallest ``k`` with ``P(X <= k) >= q`` for ``X ~ Poisson(mean)``.

    ``pdtrik`` inverts the CDF's continuous extension; rounding can push its
    ceiling one step too high, which the ``pdtr`` check takes back.
    """
    k = math.ceil(special.pdtrik(q, mean))
    below = max(k - 1, 0)
    return below if special.pdtr(below, mean) >= q else k


def _uniformized_matrix(ctmc: CTMC, rate: float) -> sparse.csr_matrix:
    """The DTMC matrix ``P = I + Q / Lambda`` of the uniformised chain."""
    generator = ctmc.generator_matrix()
    identity = sparse.identity(ctmc.num_states, format="csr")
    return (identity + generator / rate).tocsr()


__all__ = ["transient_distribution", "poisson_window"]
