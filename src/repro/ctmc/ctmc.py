"""Labelled continuous-time Markov chains.

The final step of the Arcade evaluation pipeline (Section 4 of the paper)
converts the fully composed and aggregated I/O-IMC into a labelled CTMC, on
which standard solution techniques compute availability and reliability.
This module holds the CTMC data structure; the numerical algorithms live in
the sibling modules ``steady_state``, ``transient`` and ``absorbing``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from ..errors import ModelError


class CTMC:
    """A finite labelled continuous-time Markov chain.

    Parameters
    ----------
    num_states:
        Number of states (states are ``0 .. num_states - 1``).
    transitions:
        Iterable of ``(source, rate, target)`` triples with positive rates.
        Parallel transitions between the same pair of states are summed.
    initial:
        Either a single initial state index or a full initial probability
        vector of length ``num_states``.
    labels:
        Mapping from state index to a set of atomic propositions.
    state_names:
        Optional human readable state names.
    """

    def __init__(
        self,
        num_states: int,
        transitions: Iterable[tuple[int, float, int]],
        initial: int | Sequence[float] = 0,
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: Sequence[str] | None = None,
    ) -> None:
        if num_states <= 0:
            raise ModelError("a CTMC needs at least one state")
        self.num_states = num_states
        rates: dict[tuple[int, int], float] = {}
        for source, rate, target in transitions:
            if rate <= 0:
                raise ModelError(f"transition rate must be positive, got {rate}")
            if not (0 <= source < num_states and 0 <= target < num_states):
                raise ModelError("transition endpoint out of range")
            if source == target:
                # A rate back into the same state has no effect on the
                # stochastic behaviour of a CTMC; drop it.
                continue
            rates[(source, target)] = rates.get((source, target), 0.0) + rate
        self._rates = rates
        self._finalize(initial, labels, state_names)

    def _finalize(
        self,
        initial: int | Sequence[float],
        labels: Mapping[int, frozenset[str]] | None,
        state_names: Sequence[str] | None,
    ) -> None:
        """Validate and attach the initial distribution, labels and names.

        Shared tail of the triple-loop constructor and :meth:`from_arrays`,
        so both construction paths enforce exactly the same invariants.
        """
        num_states = self.num_states
        if isinstance(initial, (int, np.integer)):
            if not 0 <= int(initial) < num_states:
                raise ModelError(f"initial state {initial} out of range")
            distribution = np.zeros(num_states)
            distribution[int(initial)] = 1.0
        else:
            distribution = np.asarray(initial, dtype=float)
            if distribution.shape != (num_states,):
                raise ModelError("initial distribution has the wrong length")
            if np.any(distribution < -1e-12) or abs(distribution.sum() - 1.0) > 1e-9:
                raise ModelError("initial distribution must be a probability vector")
        self.initial_distribution = distribution
        self.labels: dict[int, frozenset[str]] = {
            state: frozenset(props) for state, props in (labels or {}).items() if props
        }
        self.state_names = list(state_names) if state_names is not None else None
        if self.state_names is not None and len(self.state_names) != num_states:
            raise ModelError("need exactly one state name per state")

    @classmethod
    def from_arrays(
        cls,
        num_states: int,
        source: np.ndarray,
        rate: np.ndarray,
        target: np.ndarray,
        initial: int | Sequence[float] = 0,
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: Sequence[str] | None = None,
    ) -> "CTMC":
        """Build a CTMC from flat per-edge numpy columns without a Python loop.

        Semantically identical to the constructor fed the same edges as
        triples: self-loops are dropped, parallel rates between the same pair
        of states are summed — in edge order, and with the pairs interned in
        first-occurrence order, so the resulting chain is bit-identical to
        the loop-built one.  This is the fast path for
        :func:`repro.ctmc.extract_ctmc`, which hands over the CSR columns of
        the final I/O-IMC directly.
        """
        if num_states <= 0:
            raise ModelError("a CTMC needs at least one state")
        source = np.asarray(source, dtype=np.int64)
        target = np.asarray(target, dtype=np.int64)
        rate = np.asarray(rate, dtype=np.float64)
        if len(rate) and float(rate.min()) <= 0:
            raise ModelError(
                f"transition rate must be positive, got {float(rate.min())}"
            )
        if len(source) and not (
            0 <= int(source.min())
            and int(source.max()) < num_states
            and 0 <= int(target.min())
            and int(target.max()) < num_states
        ):
            raise ModelError("transition endpoint out of range")
        keep = source != target  # self-loops do not affect a CTMC
        source, rate, target = source[keep], rate[keep], target[keep]
        pair = source * num_states + target
        unique_pairs, first_index, inverse = np.unique(
            pair, return_index=True, return_inverse=True
        )
        # Intern pairs by first occurrence (the dict-insertion order of the
        # scalar constructor) and accumulate rates in edge order.
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        sums = np.bincount(rank[inverse], weights=rate, minlength=len(order))
        ordered_pairs = unique_pairs[order]
        sources, targets = np.divmod(ordered_pairs, num_states)

        self = cls.__new__(cls)
        self.num_states = num_states
        self._rates = dict(
            zip(zip(sources.tolist(), targets.tolist()), sums.tolist())
        )
        self._finalize(initial, labels, state_names)
        return self

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def label_of(self, state: int) -> frozenset[str]:
        """Atomic propositions of ``state``."""
        return self.labels.get(state, frozenset())

    def states_with_label(self, label: str) -> list[int]:
        """All states carrying the atomic proposition ``label``."""
        return [state for state in range(self.num_states) if label in self.label_of(state)]

    def state_name(self, state: int) -> str:
        """Human readable name of ``state``."""
        if self.state_names is not None:
            return self.state_names[state]
        return f"s{state}"

    @property
    def num_transitions(self) -> int:
        """Number of (source, target) pairs with positive rate."""
        return len(self._rates)

    def transitions(self) -> Iterable[tuple[int, float, int]]:
        """Iterate over ``(source, rate, target)`` triples."""
        for (source, target), rate in self._rates.items():
            yield source, rate, target

    def exit_rate(self, state: int) -> float:
        """Total rate leaving ``state``."""
        return sum(rate for (source, _), rate in self._rates.items() if source == state)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transitions as ``(source, rate, target)`` columns, in the
        order :meth:`transitions` yields them."""
        pairs = np.array(list(self._rates), dtype=np.int64).reshape(-1, 2)
        rates = np.fromiter(self._rates.values(), dtype=np.float64, count=len(self._rates))
        return pairs[:, 0], rates, pairs[:, 1]

    def rate_matrix(self) -> sparse.csr_matrix:
        """Sparse matrix ``R`` with ``R[i, j]`` = rate from ``i`` to ``j``."""
        source, rate, target = self.edge_arrays()
        return sparse.csr_matrix(
            (rate, (source, target)), shape=(self.num_states, self.num_states)
        )

    def generator_matrix(self) -> sparse.csr_matrix:
        """Infinitesimal generator ``Q = R - diag(exit rates)``."""
        rate_matrix = self.rate_matrix()
        # A matrix-vector product sums each row in index order.
        exit_rates = rate_matrix @ np.ones(self.num_states)
        return (rate_matrix - sparse.diags(exit_rates)).tocsr()

    def uniformization_rate(self) -> float:
        """A uniformisation constant (strictly larger than every exit rate)."""
        rate_matrix = self.rate_matrix()
        exit_rates = np.asarray(rate_matrix.sum(axis=1)).flatten()
        maximum = float(exit_rates.max()) if self.num_states else 0.0
        return maximum * 1.02 + 1e-12

    def absorbing_states(self) -> list[int]:
        """States without outgoing transitions."""
        has_exit = set(source for source, _ in self._rates)
        return [state for state in range(self.num_states) if state not in has_exit]

    def restricted_to(self, states: Sequence[int]) -> "CTMC":
        """Sub-chain induced by ``states`` (transitions leaving the set are dropped)."""
        index = {old: new for new, old in enumerate(states)}
        transitions = [
            (index[source], rate, index[target])
            for (source, target), rate in self._rates.items()
            if source in index and target in index
        ]
        initial = np.array([self.initial_distribution[old] for old in states])
        total = initial.sum()
        if total <= 0:
            initial = np.zeros(len(states))
            initial[0] = 1.0
        else:
            initial = initial / total
        labels = {index[old]: self.label_of(old) for old in states if self.label_of(old)}
        names = [self.state_name(old) for old in states] if self.state_names else None
        return CTMC(len(states), transitions, initial, labels, names)

    def summary(self) -> dict[str, int]:
        """Size statistics used by the benchmarks."""
        return {"states": self.num_states, "transitions": self.num_transitions}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(states={self.num_states}, transitions={self.num_transitions})"


__all__ = ["CTMC"]
