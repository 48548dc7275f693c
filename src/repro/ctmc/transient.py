"""Transient analysis of CTMCs by uniformisation.

``transient_distribution(ctmc, t)`` returns the state-probability vector at
time ``t`` starting from the chain's initial distribution.  The computation
uses the classical uniformisation (Jensen / randomisation) method:

    pi(t) = sum_k  PoissonPMF(k; Lambda * t) * pi(0) * P^k

with ``P = I + Q / Lambda`` and a truncation window chosen so that the
neglected Poisson mass is below a configurable error bound.

The iterates ``pi(0) P^k`` do not depend on ``t``, so a chain keeps
``Lambda``, ``P^T`` and the furthest iterate of its own initial
distribution between calls: a later call whose window starts at or past
that iterate's step resumes from it instead of from ``k = 0``.  Resuming
repeats none of the arithmetic and skips none of it, so the result is
byte-equal to a call on a fresh chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse, special

from ..errors import AnalysisError
from ..telemetry.trace import span as telemetry_span
from .ctmc import CTMC


def _csr_matvec_by_operator(rows, cols, indptr, indices, data, vector, out):
    """``out += A @ vector`` for the CSR arrays of ``A``, through ``@``."""
    out += sparse.csr_matrix((data, indices, indptr), shape=(rows, cols)) @ vector


try:
    # The kernel ``csr_matrix @ vector`` runs, called without the dispatch
    # of ``@`` (about 4 us a call: more than the product on the 72-state
    # RCS chain, two thirds of it on the 1,164-state one).  It is private
    # to SciPy, hence the fallback.
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - depends on the SciPy release
    _csr_matvec = _csr_matvec_by_operator


@dataclass
class _Uniformisation:
    """What :func:`transient_distribution` keeps on a chain between calls:
    ``Lambda``, ``P^T`` and the furthest iterate of the chain's own initial
    distribution any call has reached, ``pi(0) P^step`` (``None`` at step 0,
    before the first call)."""

    rate: float
    backward: sparse.csr_matrix
    step: int = 0
    iterate: np.ndarray | None = None


def _uniformisation(ctmc: CTMC) -> _Uniformisation:
    """The chain's memoised uniformisation (CTMCs are immutable after
    construction, like the steady-state memo)."""
    cached = getattr(ctmc, "_uniformisation_cache", None)
    if cached is None:
        rate = ctmc.uniformization_rate()
        # ``current @ P`` would transpose ``P`` on every step.  ``P^T`` in
        # CSR form, built once, sums each entry of the product over the same
        # terms in the same (ascending) order, so the iterates are the same.
        backward = _uniformized_matrix(ctmc, rate).transpose().tocsr()
        cached = _Uniformisation(rate, backward)
        ctmc._uniformisation_cache = cached
    return cached


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
        A call with one neither reads nor moves the chain's checkpoint.
    epsilon:
        Bound on the truncated Poisson probability mass.

    With telemetry on, a ``ctmc.transient`` span records the window
    (``left``, ``right``), the matrix-vector products this call made
    (``steps``), the iterate it started from (``resumed_from``) and the
    Poisson mass outside the window (``truncated_mass``).
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

    uniformisation = _uniformisation(ctmc)
    backward = uniformisation.backward
    left, right, weights = poisson_window(uniformisation.rate * time, epsilon)
    own = initial is None
    start, current = 0, distribution
    if own and 0 < uniformisation.step <= left:
        start, current = uniformisation.step, uniformisation.iterate

    with telemetry_span("ctmc.transient", states=ctmc.num_states) as record:
        size = ctmc.num_states
        result = np.zeros_like(distribution)
        indptr, indices, data = backward.indptr, backward.indices, backward.data
        for step in range(start, right + 1):
            if step >= left:
                result += weights[step - left] * current
            if step < right:
                following = np.zeros(size)
                _csr_matvec(size, size, indptr, indices, data, current, following)
                current = following
        if own and right > uniformisation.step:
            uniformisation.step, uniformisation.iterate = right, current
        record.set(
            left=left,
            right=right,
            steps=right - start,
            resumed_from=start,
            truncated_mass=1.0 - math.fsum(weights),
        )
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
