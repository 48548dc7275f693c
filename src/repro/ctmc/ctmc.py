"""Labelled continuous-time Markov chains.

The final step of the Arcade evaluation pipeline (Section 4 of the paper)
converts the fully composed and aggregated I/O-IMC into a labelled CTMC, on
which standard solution techniques compute availability and reliability.
This module holds the CTMC data structure — the transitions as three
aligned edge columns — and the numerical algorithms live in the sibling
modules ``steady_state``, ``transient`` and ``absorbing``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from ..errors import ModelError
from ..names import NameSource, as_name_source, name_of


class CTMC:
    """A finite labelled continuous-time Markov chain.

    The transitions are stored as three aligned edge columns — ``source``
    (``int64``), ``rate`` (``float64``) and ``target`` (``int64``) — one entry
    per distinct ``(source, target)`` pair with positive total rate, in the
    order the pair first occurs in the input.

    Parameters
    ----------
    num_states:
        Number of states (states are ``0 .. num_states - 1``).
    transitions:
        Iterable of ``(source, rate, target)`` triples with finite positive
        rates.  Parallel transitions between the same pair of states are
        summed; self-loops are dropped.
    initial:
        Either a single initial state index or a full initial probability
        vector of length ``num_states``.
    labels:
        Mapping from state index to a set of atomic propositions.
    state_names:
        Optional human readable state names: a sequence or a
        :class:`~repro.names.NameSource`.
    """

    def __init__(
        self,
        num_states: int,
        transitions: Iterable[tuple[int, float, int]],
        initial: int | Sequence[float] = 0,
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: Sequence[str] | NameSource | None = None,
    ) -> None:
        edges = list(transitions)
        source, rate, target = zip(*edges) if edges else ((), (), ())
        self._build(num_states, source, rate, target, initial, labels, state_names)

    @classmethod
    def from_arrays(
        cls,
        num_states: int,
        source: np.ndarray,
        rate: np.ndarray,
        target: np.ndarray,
        initial: int | Sequence[float] = 0,
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: Sequence[str] | NameSource | None = None,
    ) -> "CTMC":
        """Build a CTMC from flat per-edge columns without a Python loop.

        Same semantics as the constructor fed the same edges as triples.
        This is the path :func:`repro.ctmc.extract_ctmc` and
        :func:`repro.ctmc.lump` take, handing over their edge columns
        directly.
        """
        self = cls.__new__(cls)
        self._build(num_states, source, rate, target, initial, labels, state_names)
        return self

    def _build(
        self,
        num_states: int,
        source,
        rate,
        target,
        initial: int | Sequence[float],
        labels: Mapping[int, frozenset[str]] | None,
        state_names: Sequence[str] | NameSource | None,
    ) -> None:
        """The one validating core behind both constructors.

        Rejects rates that are not finite and positive and endpoints out of
        range, drops self-loops, interns the ``(source, target)`` pairs in
        first-occurrence order and sums parallel rates in edge order.
        """
        if num_states <= 0:
            raise ModelError("a CTMC needs at least one state")
        source = np.asarray(source, dtype=np.int64)
        target = np.asarray(target, dtype=np.int64)
        rate = np.asarray(rate, dtype=np.float64)
        bad = ~(np.isfinite(rate) & (rate > 0))
        if bad.any():
            raise ModelError(
                "transition rate must be finite and positive, "
                f"got {float(rate[np.argmax(bad)])}"
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
        unique_pairs, first_index, inverse = np.unique(
            source * num_states + target, return_index=True, return_inverse=True
        )
        # Intern pairs by first occurrence and accumulate rates in edge order.
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        sums = np.bincount(rank[inverse], weights=rate, minlength=len(order))
        columns = (
            *np.divmod(unique_pairs[order], num_states),
            sums.astype(np.float64, copy=False),  # int64 when there is no edge
        )
        for column in columns:
            column.setflags(write=False)
        self._source, self._target, self._rate = columns

        self.num_states = num_states
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
        self.name_source = as_name_source(state_names)
        if self.name_source is not None and len(self.name_source) != num_states:
            raise ModelError("need exactly one state name per state")

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def label_of(self, state: int) -> frozenset[str]:
        """Atomic propositions of ``state``."""
        return self.labels.get(state, frozenset())

    def states_with_label(self, label: str) -> list[int]:
        """All states carrying the atomic proposition ``label``."""
        return [state for state in range(self.num_states) if label in self.label_of(state)]

    @property
    def state_names(self) -> list[str] | None:
        """Every state's name, built on request (``None``: unnamed)."""
        return None if self.name_source is None else self.name_source.names()

    def state_name(self, state: int) -> str:
        """Human readable name of ``state``."""
        return name_of(self.name_source, state)

    @property
    def num_transitions(self) -> int:
        """Number of (source, target) pairs with positive rate."""
        return len(self._rate)

    def transitions(self) -> Iterable[tuple[int, float, int]]:
        """Iterate over ``(source, rate, target)`` triples."""
        return zip(self._source.tolist(), self._rate.tolist(), self._target.tolist())

    def exit_rate(self, state: int) -> float:
        """Total rate leaving ``state``."""
        return sum(self._rate[self._source == state].tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored ``(source, rate, target)`` columns (read-only), in the
        order :meth:`transitions` yields them."""
        return self._source, self._rate, self._target

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
        has_exit = np.zeros(self.num_states, dtype=bool)
        has_exit[self._source] = True
        return np.flatnonzero(~has_exit).tolist()

    def summary(self) -> dict[str, int]:
        """State and transition counts."""
        return {"states": self.num_states, "transitions": self.num_transitions}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(states={self.num_states}, transitions={self.num_transitions})"


__all__ = ["CTMC"]
