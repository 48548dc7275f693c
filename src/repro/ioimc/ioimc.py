"""Core data structure for Input/Output Interactive Markov Chains.

An I/O-IMC (Section 2 of the paper) is a transition system with two kinds of
transitions:

* *interactive* transitions, labelled with an action name whose kind (input,
  output or internal) is determined by the automaton's :class:`Signature`;
* *Markovian* transitions, labelled with a rate ``lambda`` of an exponential
  delay.

States are represented as integers ``0 .. num_states - 1``; optional human
readable state names can be attached for debugging and visualisation, as a
lazy :mod:`~repro.names` source that builds the strings on request.  Each
state may additionally carry a set of atomic propositions (*labels*) such
as ``"down"`` — labels survive composition and minimisation and are used
to identify system-failure states when the final model is converted into a
labelled CTMC.

The transitions are stored once, as the flat CSR columns of the automaton's
:class:`~repro.ioimc.indexed.TransitionIndex`.  The per-state row tables
(:attr:`IOIMC.interactive`, :attr:`IOIMC.markovian`) are views rebuilt from
those columns on each access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import InputEnablednessError, ModelError
from ..names import NameSource, as_name_source, name_of, select
from ..nputil import (
    dedupe_packed_triples,
    gather_row_indices,
    rows_from_edges,
    unique_sorted,
)
from .actions import ActionKind, Signature, natural_sort_key
from .indexed import InteractiveCSR, MarkovianCSR, TransitionIndex, intern_actions


@dataclass(frozen=True)
class InteractiveTransition:
    """One interactive transition ``source --action--> target``."""

    source: int
    action: str
    target: int


@dataclass(frozen=True)
class MarkovianTransition:
    """One Markovian transition ``source --rate--> target``."""

    source: int
    rate: float
    target: int


class IOIMC:
    """An Input/Output Interactive Markov Chain.

    Parameters
    ----------
    name:
        Human readable name of the automaton (used in diagnostics only).
    signature:
        Partition of the action names into inputs, outputs and internals.
    num_states:
        Number of states; states are the integers ``0 .. num_states - 1``.
    initial:
        Index of the initial state.
    interactive:
        For every state, a list of ``(action, target)`` pairs.
    markovian:
        For every state, a list of ``(rate, target)`` pairs.
    labels:
        Optional mapping from state index to a set of atomic propositions.
    state_names:
        Optional human readable state names (one per state): a sequence or
        a :class:`~repro.names.NameSource`.

    The constructor converts the rows to CSR columns once, in row order, and
    validates them (:meth:`validate`).  The library's own transformations
    build through :meth:`from_tables` instead.
    """

    __slots__ = (
        "name",
        "signature",
        "num_states",
        "initial",
        "labels",
        "name_source",
        "_index",
        # Lets identity-keyed memos (the quotient cache's leaf fingerprints)
        # refer to an automaton weakly.
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        signature: Signature,
        num_states: int,
        initial: int,
        interactive: Sequence[Sequence[tuple[str, int]]],
        markovian: Sequence[Sequence[tuple[float, int]]],
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: Sequence[str] | NameSource | None = None,
    ) -> None:
        if num_states <= 0:
            raise ModelError("an I/O-IMC needs at least one state")
        if len(interactive) != num_states or len(markovian) != num_states:
            raise ModelError("transition tables must have exactly one entry per state")
        table = intern_actions(signature)
        indptr, source, names, target = _row_columns(interactive, num_states)
        action = np.fromiter(
            (table.id_of.get(action, -1) for action in names),
            dtype=np.int64,
            count=len(names),
        )
        if len(action) and action.min() < 0:
            edge = int(np.argmax(action < 0))
            raise ModelError(
                f"{name}: state {source[edge]} uses action {names[edge]!r} "
                "which is not declared in the signature"
            )
        m_indptr, m_source, rates, m_target = _row_columns(markovian, num_states)
        rate = np.array(rates, dtype=np.float64)
        labels = {
            state: frozenset(props) for state, props in (labels or {}).items() if props
        }
        state_names = as_name_source(state_names)
        _check_tables(
            name,
            len(table.actions),
            initial,
            InteractiveCSR(indptr, source, action, target),
            MarkovianCSR(m_indptr, m_source, rate, m_target),
            labels,
            state_names,
        )
        # The id columns are narrowed only once they are known to be in range.
        self._attach(
            name,
            signature,
            initial,
            InteractiveCSR(
                indptr, source, action.astype(np.int32), target.astype(np.int32)
            ),
            MarkovianCSR(m_indptr, m_source, rate, m_target.astype(np.int32)),
            labels,
            state_names,
        )

    @classmethod
    def from_tables(
        cls,
        name: str,
        signature: Signature,
        initial: int,
        interactive_csr: InteractiveCSR,
        markovian_csr: MarkovianCSR,
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: NameSource | list[str] | None = None,
    ) -> "IOIMC":
        """Construct from CSR columns, without validation or copies.

        The library's own transformations (composition, hiding, reductions,
        quotients) produce columns that are valid by construction;
        re-validating them would cost a measurable share of the pipeline.
        The caller hands over ownership of the columns, ``labels`` (empty
        label sets omitted) and ``state_names``, and guarantees every
        invariant :meth:`validate` checks; ``num_states`` is the row count
        of the columns.
        """
        self = cls.__new__(cls)
        self._attach(
            name,
            signature,
            initial,
            interactive_csr,
            markovian_csr,
            labels if labels is not None else {},
            state_names,
        )
        return self

    def _attach(
        self,
        name,
        signature,
        initial,
        interactive_csr,
        markovian_csr,
        labels,
        state_names,
    ) -> None:
        self.name = name
        self.signature = signature
        self.num_states = len(interactive_csr.indptr) - 1
        self.initial = initial
        self.labels = labels
        self.name_source = as_name_source(state_names)
        self._index = TransitionIndex(signature, interactive_csr, markovian_csr)

    def index(self) -> TransitionIndex:
        """The :class:`~repro.ioimc.indexed.TransitionIndex` holding this
        automaton's transitions."""
        return self._index

    def validate(self) -> None:
        """Raise :class:`ModelError` unless the columns form a valid I/O-IMC.

        Row offsets must run from 0 to the edge count with ``source`` their
        expansion; action and target ids must be in range; rates must be
        finite and positive; ``initial``, the labels and the state names
        must fit ``num_states``.
        """
        index = self._index
        _check_tables(
            self.name,
            len(index.actions),
            self.initial,
            index.interactive_csr,
            index.markovian_csr,
            self.labels,
            self.name_source,
        )

    # ------------------------------------------------------------------ #
    # transition tables
    # ------------------------------------------------------------------ #
    @property
    def interactive(self) -> list[list[tuple[str, int]]]:
        """Per state, the ``(action, target)`` interactive transitions."""
        csr = self._index.interactive_csr
        names = self._index.actions
        return rows_from_edges(
            csr.source,
            [names[action] for action in csr.action.tolist()],
            csr.target.tolist(),
            self.num_states,
        )

    @property
    def markovian(self) -> list[list[tuple[float, int]]]:
        """Per state, the ``(rate, target)`` Markovian transitions."""
        csr = self._index.markovian_csr
        return rows_from_edges(
            csr.source, csr.rate.tolist(), csr.target.tolist(), self.num_states
        )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def states(self) -> range:
        """Iterate over all state indices."""
        return range(self.num_states)

    @property
    def state_names(self) -> list[str] | None:
        """Every state's name, built on request (``None``: unnamed)."""
        return None if self.name_source is None else self.name_source.names()

    def state_name(self, state: int) -> str:
        """Human readable name of ``state`` (falls back to the index)."""
        return name_of(self.name_source, state)

    def label_of(self, state: int) -> frozenset[str]:
        """Atomic propositions attached to ``state``."""
        return self.labels.get(state, frozenset())

    def kind_of(self, action: str) -> ActionKind:
        """Kind of ``action`` in this automaton's signature."""
        return self.signature.kind_of(action)

    def _interactive_row(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """``(action ids, targets)`` of the interactive edges leaving ``state``."""
        csr = self._index.interactive_csr
        span = slice(csr.indptr[state], csr.indptr[state + 1])
        return csr.action[span], csr.target[span]

    def interactive_successors(self, state: int, action: str) -> list[int]:
        """Targets of all ``action`` transitions leaving ``state``."""
        actions, targets = self._interactive_row(state)
        return targets[actions == self._index.id_of.get(action, -1)].tolist()

    def enabled_actions(self, state: int) -> set[str]:
        """All actions with at least one transition leaving ``state``."""
        names = self._index.actions
        return {names[action] for action in self._interactive_row(state)[0].tolist()}

    def is_stable(self, state: int) -> bool:
        """A state is *stable* when no output or internal transition is enabled.

        Only stable states may let time pass (maximal progress assumption);
        Markovian transitions are therefore only meaningful in stable states.
        """
        return bool(self._index.stable_flags[state])

    def exit_rate(self, state: int) -> float:
        """Sum of the Markovian rates leaving ``state``."""
        csr = self._index.markovian_csr
        return sum(csr.rate[csr.indptr[state] : csr.indptr[state + 1]].tolist())

    def num_interactive_transitions(self) -> int:
        """Total number of interactive transitions."""
        return self._index.interactive_csr.num_edges

    def num_markovian_transitions(self) -> int:
        """Total number of Markovian transitions."""
        return self._index.markovian_csr.num_edges

    def num_transitions(self) -> int:
        """Total number of transitions of either kind."""
        return self.num_interactive_transitions() + self.num_markovian_transitions()

    def iter_interactive(self) -> Iterator[InteractiveTransition]:
        """Iterate over all interactive transitions."""
        for source, row in enumerate(self.interactive):
            for action, target in row:
                yield InteractiveTransition(source, action, target)

    def iter_markovian(self) -> Iterator[MarkovianTransition]:
        """Iterate over all Markovian transitions."""
        for source, row in enumerate(self.markovian):
            for rate, target in row:
                yield MarkovianTransition(source, rate, target)

    # ------------------------------------------------------------------ #
    # input enabledness
    # ------------------------------------------------------------------ #
    def missing_inputs(self, state: int) -> set[str]:
        """Input actions for which ``state`` has no explicit transition."""
        return set(self.signature.inputs) - self.enabled_actions(state)

    def check_input_enabled(self) -> None:
        """Raise :class:`InputEnablednessError` unless every state accepts every input."""
        for state in self.states():
            missing = self.missing_inputs(state)
            if missing:
                raise InputEnablednessError(
                    f"{self.name}: state {self.state_name(state)} has no transition "
                    f"for input action(s) {sorted(missing)}"
                )

    def ensure_input_enabled(self) -> "IOIMC":
        """Return an equivalent I/O-IMC with explicit input self-loops added.

        The paper omits these self-loops in figures "for the sake of clarity";
        semantically a state without an explicit ``a?`` transition simply stays
        put when ``a`` occurs.  This helper materialises that convention: the
        missing ``(state, input)`` self-loops are appended after each state's
        own edges, in natural name order (not set hash order: the self-loop
        positions then depend only on the naming scheme, keeping replicated
        blocks structurally aligned for the cache).
        """
        inputs = sorted(self.signature.inputs, key=natural_sort_key)
        if not inputs:
            return self
        index = self._index
        csr = index.interactive_csr
        input_ids = np.array([index.id_of[action] for action in inputs], dtype=np.int64)
        column_of = np.full(len(index.actions), -1, dtype=np.int64)
        column_of[input_ids] = np.arange(len(inputs), dtype=np.int64)
        column = column_of[csr.action]
        is_input = column >= 0
        present = np.zeros((self.num_states, len(inputs)), dtype=bool)
        present[csr.source[is_input], column[is_input]] = True
        loop_state, loop_column = np.nonzero(~present)
        if not len(loop_state):
            return self
        # A stable sort keeps each state's own edges ahead of its new loops.
        source = np.concatenate([csr.source, loop_state])
        order = np.argsort(source, kind="stable")
        return IOIMC.from_tables(
            self.name,
            self.signature,
            self.initial,
            InteractiveCSR.from_edges(
                source[order],
                np.concatenate([csr.action, input_ids[loop_column]])[order],
                np.concatenate([csr.target, loop_state])[order],
                self.num_states,
            ),
            index.markovian_csr,
            self.labels,
            self.name_source,
        )

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def relabel_states(self, block_of: Sequence[int], num_new_states: int) -> "IOIMC":
        """Quotient/rename states: old state ``s`` becomes ``block_of[s]``.

        Interactive transitions and labels of all merged states are unioned.
        Markovian rates are taken from a single *representative* state per
        block (see :meth:`_quotient`), with parallel rates into the same
        target block summed — this is the quotient construction used by
        (bi)simulation lumping, where all states of a block have, by
        definition, the same cumulative rate into every other block.  Strong
        bisimulation never puts stable and unstable states in one block, so
        there the representative is simply the block's first state.
        """
        block = np.asarray(block_of, dtype=np.int64)
        return self._quotient(block, num_new_states, None, union_labels=True)

    def _quotient(
        self, block: np.ndarray, num_new_states: int, keep_edge, *, union_labels: bool
    ) -> "IOIMC":
        """CSR quotient core: old state ``s`` becomes ``block[s]``.

        The interactive edges selected by the mask ``keep_edge`` (``None``:
        all) are unioned per new state by one sorted dedupe of packed
        ``(new source, action, new target)`` triples.  Each new state takes
        its rates, name and (unless ``union_labels``) labels from its first
        stable member, or its first member if none is stable.
        """
        index = self._index
        interactive_csr = index.interactive_csr
        markovian_csr = index.markovian_csr
        keep = slice(None) if keep_edge is None else keep_edge
        new_src, new_action, new_tgt = dedupe_packed_triples(
            block[interactive_csr.source[keep]],
            interactive_csr.action[keep].astype(np.int64),
            block[interactive_csr.target[keep]],
            len(index.actions),
            num_new_states,
        )

        # The smallest key state + n * unstable per new state picks its
        # representative (new states without a preimage keep empty rows).
        num_states = self.num_states
        first = np.full(num_new_states, 2 * num_states, dtype=np.int64)
        np.minimum.at(
            first,
            block,
            np.arange(num_states, dtype=np.int64)
            + np.where(index.stable_flags, 0, num_states),
        )
        present = np.flatnonzero(first < 2 * num_states)
        representative = first[present] % num_states
        picked = gather_row_indices(markovian_csr.indptr, representative)
        rate_src = rate_tgt = np.empty(0, dtype=np.int64)
        rate_sum = np.empty(0, dtype=np.float64)
        if len(picked):
            pair = block[markovian_csr.source[picked]] * num_new_states + block[
                markovian_csr.target[picked]
            ]
            unique_pairs, pair_index = np.unique(pair, return_inverse=True)
            rate_sum = np.bincount(pair_index, weights=markovian_csr.rate[picked])
            rate_src, rate_tgt = np.divmod(unique_pairs, num_new_states)

        named_after = np.full(num_new_states, -1, dtype=np.int64)
        named_after[present] = representative
        if union_labels:
            merged: dict[int, set[str]] = {}
            for old, props in self.labels.items():
                merged.setdefault(int(block[old]), set()).update(props)
            labels = {state: frozenset(props) for state, props in merged.items()}
        else:
            labels = {
                new: self.labels[old]
                for new, old in zip(present.tolist(), representative.tolist())
                if old in self.labels
            }
        return IOIMC.from_tables(
            self.name,
            self.signature,
            int(block[self.initial]),
            InteractiveCSR.from_edges(new_src, new_action, new_tgt, num_new_states),
            MarkovianCSR.from_edges(rate_src, rate_sum, rate_tgt, num_new_states),
            labels,
            select(self.name_source, named_after),
        )

    def restrict_to_reachable(self) -> "IOIMC":
        """Drop states that are unreachable from the initial state."""
        return self._restrict_to_reachable()[0]

    def _restrict_to_reachable(self) -> tuple["IOIMC", np.ndarray]:
        """:meth:`restrict_to_reachable` plus its renumbering: ``new_of_old``
        maps every state to its new index, or to ``-1`` if it was dropped."""
        reachable = self._reachable_mask()
        num_reachable = int(reachable.sum())
        if num_reachable == self.num_states:
            return self, np.arange(self.num_states, dtype=np.int64)
        index = self._index
        order = np.flatnonzero(reachable)  # ascending old state ids
        new_of_old = np.full(self.num_states, -1, dtype=np.int64)
        new_of_old[order] = np.arange(num_reachable, dtype=np.int64)

        interactive_csr = index.interactive_csr
        picked = gather_row_indices(interactive_csr.indptr, order)
        new_isrc = new_of_old[interactive_csr.source[picked]]
        new_iact = interactive_csr.action[picked]
        new_itgt = new_of_old[interactive_csr.target[picked]]
        markovian_csr = index.markovian_csr
        picked = gather_row_indices(markovian_csr.indptr, order)
        new_msrc = new_of_old[markovian_csr.source[picked]]
        new_mrate = markovian_csr.rate[picked]
        new_mtgt = new_of_old[markovian_csr.target[picked]]
        labels = {
            int(new_of_old[old]): props
            for old, props in self.labels.items()
            if reachable[old]
        }
        names = None if self.name_source is None else select(self.name_source, order)
        restricted = IOIMC.from_tables(
            self.name,
            self.signature,
            int(new_of_old[self.initial]),
            InteractiveCSR.from_edges(new_isrc, new_iact, new_itgt, num_reachable),
            MarkovianCSR.from_edges(new_msrc, new_mrate, new_mtgt, num_reachable),
            labels,
            names,
        )
        return restricted, new_of_old

    def _reachable_mask(self):
        """Boolean mask of states reachable from the initial state.

        Batched BFS over the CSR adjacency: a whole frontier level is
        expanded per step, so the cost is a few array operations per level of
        the reachability tree instead of Python work per transition.
        """
        interactive_csr = self._index.interactive_csr
        markovian_csr = self._index.markovian_csr
        seen = np.zeros(self.num_states, dtype=bool)
        seen[self.initial] = True
        frontier = np.array([self.initial], dtype=np.int64)
        while len(frontier):
            targets = np.concatenate(
                [
                    interactive_csr.target[
                        gather_row_indices(interactive_csr.indptr, frontier)
                    ],
                    markovian_csr.target[
                        gather_row_indices(markovian_csr.indptr, frontier)
                    ],
                ]
            ).astype(np.int64)
            targets = unique_sorted(targets)
            frontier = targets[~seen[targets]]
            seen[frontier] = True
        return seen

    def renamed(self, name: str) -> "IOIMC":
        """Return a shallow copy carrying a different automaton name."""
        return IOIMC.from_tables(
            name,
            self.signature,
            self.initial,
            self._index.interactive_csr,
            self._index.markovian_csr,
            self.labels,
            self.name_source,
        )

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IOIMC({self.name!r}, states={self.num_states}, "
            f"interactive={self.num_interactive_transitions()}, "
            f"markovian={self.num_markovian_transitions()})"
        )

    def summary(self) -> dict[str, int]:
        """State and transition counts."""
        return {
            "states": self.num_states,
            "interactive_transitions": self.num_interactive_transitions(),
            "markovian_transitions": self.num_markovian_transitions(),
            "transitions": self.num_transitions(),
        }


def _row_columns(rows, num_states: int):
    """``(indptr, source, first entries, int64 targets)`` of a row table."""
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=num_states)
    indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    source = np.repeat(np.arange(num_states, dtype=np.int32), counts)
    first = [entry for row in rows for entry, _ in row]
    target = np.fromiter(
        (target for row in rows for _, target in row),
        dtype=np.int64,
        count=len(first),
    )
    return indptr, source, first, target


def _check_tables(
    name: str,
    num_actions: int,
    initial: int,
    interactive: InteractiveCSR,
    markovian: MarkovianCSR,
    labels: Mapping[int, frozenset[str]],
    state_names: NameSource | None,
) -> None:
    """The validating core behind :meth:`IOIMC.__init__` and
    :meth:`IOIMC.validate` (see there)."""
    num_states = len(interactive.indptr) - 1
    if num_states <= 0:
        raise ModelError("an I/O-IMC needs at least one state")
    for kind, csr, payload, payload_kinds in (
        ("interactive", interactive, interactive.action, "iu"),
        ("Markovian", markovian, markovian.rate, "f"),
    ):
        indptr, source, target = csr.indptr, csr.source, csr.target
        edges = len(target)
        ids = (indptr, source, target)
        if (
            any(column.ndim != 1 for column in (*ids, payload))
            or any(column.dtype.kind not in "iu" for column in ids)
            or payload.dtype.kind not in payload_kinds
        ):
            raise ModelError(f"{name}: {kind} columns have the wrong shape or type")
        if (
            len(indptr) != num_states + 1
            or indptr[0] != 0
            or indptr[-1] != edges
            or (np.diff(indptr) < 0).any()
        ):
            raise ModelError(
                f"{name}: {kind} row offsets must run from 0 to {edges} "
                f"over {num_states} states"
            )
        expansion = np.repeat(np.arange(num_states), np.diff(indptr))
        if len(payload) != edges or not np.array_equal(source, expansion):
            raise ModelError(f"{name}: {kind} columns do not match the row offsets")
        bad = np.flatnonzero((target < 0) | (target >= num_states))
        if len(bad):
            raise ModelError(
                f"{name}: state {source[bad[0]]} has {kind} target "
                f"{target[bad[0]]} out of range 0..{num_states - 1}"
            )
    action = interactive.action
    bad = np.flatnonzero((action < 0) | (action >= num_actions))
    if len(bad):
        raise ModelError(
            f"{name}: state {interactive.source[bad[0]]} uses action id "
            f"{action[bad[0]]} outside the signature's {num_actions} actions"
        )
    rate = markovian.rate
    bad = np.flatnonzero(~(np.isfinite(rate) & (rate > 0)))
    if len(bad):
        raise ModelError(
            f"{name}: Markovian rate of state {markovian.source[bad[0]]} must be "
            f"finite and positive, got {float(rate[bad[0]])}"
        )
    if not 0 <= initial < num_states:
        raise ModelError(f"initial state {initial} out of range 0..{num_states - 1}")
    for state in labels:
        if not 0 <= state < num_states:
            raise ModelError(f"{name}: label attached to unknown state {state}")
    if state_names is not None and len(state_names) != num_states:
        raise ModelError(f"{name}: need exactly one state name per state")
