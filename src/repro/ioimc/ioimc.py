"""Core data structure for Input/Output Interactive Markov Chains.

An I/O-IMC (Section 2 of the paper) is a transition system with two kinds of
transitions:

* *interactive* transitions, labelled with an action name whose kind (input,
  output or internal) is determined by the automaton's :class:`Signature`;
* *Markovian* transitions, labelled with a rate ``lambda`` of an exponential
  delay.

States are represented as integers ``0 .. num_states - 1``; an optional list
of human readable state names can be attached for debugging and
visualisation.  Each state may additionally carry a set of atomic
propositions (*labels*) such as ``"down"`` — labels survive composition and
minimisation and are used to identify system-failure states when the final
model is converted into a labelled CTMC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import InputEnablednessError, ModelError
from ..nputil import (
    csr_indptr,
    dedupe_packed_triples,
    gather_row_indices,
    rows_from_edges,
    unique_sorted,
)
from .actions import ActionKind, Signature, natural_sort_key


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
        Optional human readable state names (one per state).
    """

    __slots__ = (
        "name",
        "signature",
        "num_states",
        "initial",
        "_interactive",
        "_markovian",
        "labels",
        "state_names",
        "_index",
        "_transition_counts",
        # Lets the transition index and identity-keyed memos (the quotient
        # cache's leaf fingerprints) refer to an automaton weakly.
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
        state_names: Sequence[str] | None = None,
    ) -> None:
        if num_states <= 0:
            raise ModelError("an I/O-IMC needs at least one state")
        if not 0 <= initial < num_states:
            raise ModelError(f"initial state {initial} out of range 0..{num_states - 1}")
        if len(interactive) != num_states or len(markovian) != num_states:
            raise ModelError("transition tables must have exactly one entry per state")
        self.name = name
        self.signature = signature
        self.num_states = num_states
        self.initial = initial
        self._interactive: list[list[tuple[str, int]]] | None = [
            list(row) for row in interactive
        ]
        self._markovian: list[list[tuple[float, int]]] | None = [
            list(row) for row in markovian
        ]
        self.labels: dict[int, frozenset[str]] = {
            state: frozenset(props) for state, props in (labels or {}).items() if props
        }
        self.state_names = list(state_names) if state_names is not None else None
        self._index = None
        self._transition_counts = None
        self._validate()

    @classmethod
    def trusted(
        cls,
        name: str,
        signature: Signature,
        num_states: int,
        initial: int,
        interactive: list[list[tuple[str, int]]],
        markovian: list[list[tuple[float, int]]],
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: list[str] | None = None,
    ) -> "IOIMC":
        """Construct without validation or defensive copies (internal use only).

        The library's own transformations (composition, hiding, reductions,
        quotients) produce transition tables that are valid by construction;
        re-validating and re-copying them accounted for a measurable share of
        the composition pipeline's runtime.  Callers hand over ownership of
        ``interactive``/``markovian``/``state_names`` and must guarantee every
        invariant that ``__init__`` checks.
        """
        self = cls.__new__(cls)
        self.name = name
        self.signature = signature
        self.num_states = num_states
        self.initial = initial
        self._interactive = interactive
        self._markovian = markovian
        self.labels = {
            state: props for state, props in (labels or {}).items() if props
        }
        self.state_names = state_names
        self._index = None
        self._transition_counts = None
        return self

    def index(self):
        """The cached :class:`~repro.ioimc.indexed.TransitionIndex` of this automaton."""
        if self._index is None:
            from .indexed import TransitionIndex

            self._index = TransitionIndex(self)
        return self._index

    # ------------------------------------------------------------------ #
    # transition tables
    # ------------------------------------------------------------------ #
    # The library's own transformations construct automata from the flat CSR
    # arrays of a pre-seeded TransitionIndex and leave the Python rows
    # unmaterialised; the properties below rebuild them on first access (in
    # CSR edge order, which is exactly the order an eager construction would
    # have produced).  Invariant: whenever a row table is None, ``_index``
    # carries explicit CSR tables for it.

    @property
    def interactive(self) -> list[list[tuple[str, int]]]:
        """Per state, the ``(action, target)`` interactive transitions."""
        rows = self._interactive
        if rows is None:
            csr = self._index.interactive_csr
            names = np.array(self._index.actions)
            rows = rows_from_edges(
                csr.source,
                names[csr.action].tolist(),
                csr.target.tolist(),
                self.num_states,
            )
            self._interactive = rows
        return rows

    @property
    def markovian(self) -> list[list[tuple[float, int]]]:
        """Per state, the ``(rate, target)`` Markovian transitions."""
        rows = self._markovian
        if rows is None:
            csr = self._index._markovian_csr
            rows = rows_from_edges(
                csr.source, csr.rate.tolist(), csr.target.tolist(), self.num_states
            )
            self._markovian = rows
        return rows

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        known = self.signature.all_actions
        for state, row in enumerate(self.interactive):
            for action, target in row:
                if action not in known:
                    raise ModelError(
                        f"{self.name}: state {state} uses action {action!r} "
                        "which is not declared in the signature"
                    )
                if not 0 <= target < self.num_states:
                    raise ModelError(f"{self.name}: interactive target {target} out of range")
        for state, row in enumerate(self.markovian):
            for rate, target in row:
                if rate <= 0:
                    raise ModelError(
                        f"{self.name}: state {state} has a non-positive Markovian rate {rate}"
                    )
                if not 0 <= target < self.num_states:
                    raise ModelError(f"{self.name}: Markovian target {target} out of range")
        for state in self.labels:
            if not 0 <= state < self.num_states:
                raise ModelError(f"{self.name}: label attached to unknown state {state}")
        if self.state_names is not None and len(self.state_names) != self.num_states:
            raise ModelError(f"{self.name}: need exactly one state name per state")

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def states(self) -> range:
        """Iterate over all state indices."""
        return range(self.num_states)

    def state_name(self, state: int) -> str:
        """Human readable name of ``state`` (falls back to the index)."""
        if self.state_names is not None:
            return self.state_names[state]
        return f"s{state}"

    def label_of(self, state: int) -> frozenset[str]:
        """Atomic propositions attached to ``state``."""
        return self.labels.get(state, frozenset())

    def kind_of(self, action: str) -> ActionKind:
        """Kind of ``action`` in this automaton's signature."""
        return self.signature.kind_of(action)

    def interactive_successors(self, state: int, action: str) -> list[int]:
        """Targets of all ``action`` transitions leaving ``state``."""
        return [target for act, target in self.interactive[state] if act == action]

    def enabled_actions(self, state: int) -> set[str]:
        """All actions with at least one transition leaving ``state``."""
        return {action for action, _ in self.interactive[state]}

    def enabled_urgent_actions(self, state: int) -> set[str]:
        """Output and internal actions enabled in ``state`` (cannot be delayed)."""
        urgent = set()
        for action, _ in self.interactive[state]:
            if self.signature.kind_of(action) is not ActionKind.INPUT:
                urgent.add(action)
        return urgent

    def is_stable(self, state: int) -> bool:
        """A state is *stable* when no output or internal transition is enabled.

        Only stable states may let time pass (maximal progress assumption);
        Markovian transitions are therefore only meaningful in stable states.
        """
        return not self.enabled_urgent_actions(state)

    def exit_rate(self, state: int) -> float:
        """Sum of the Markovian rates leaving ``state``."""
        return sum(rate for rate, _ in self.markovian[state])

    def num_interactive_transitions(self) -> int:
        """Total number of interactive transitions."""
        return self._counts()[0]

    def num_markovian_transitions(self) -> int:
        """Total number of Markovian transitions."""
        return self._counts()[1]

    def _counts(self) -> tuple[int, int]:
        if self._transition_counts is None:
            if self._interactive is None:
                interactive_count = self._index.interactive_csr.num_edges
            else:
                interactive_count = sum(len(row) for row in self._interactive)
            if self._markovian is None:
                markovian_count = self._index._markovian_csr.num_edges
            else:
                markovian_count = sum(len(row) for row in self._markovian)
            self._transition_counts = (interactive_count, markovian_count)
        return self._transition_counts

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
        put when ``a`` occurs.  This helper materialises that convention.
        """
        inputs = self.signature.inputs
        if not inputs:
            return self
        if self._interactive is None and self._fully_input_enabled():
            # CSR fast path: quotients/products of input-enabled automata are
            # input-enabled already — confirm without materialising the rows.
            return self
        interactive: list[list[tuple[str, int]]] = []
        changed = False
        for state, row in enumerate(self.interactive):
            missing = inputs - {action for action, _ in row}
            if missing:
                # Natural name order (not set hash order): the self-loop
                # positions then depend only on the naming scheme, keeping
                # replicated blocks structurally aligned for the cache.
                interactive.append(
                    list(row)
                    + [
                        (action, state)
                        for action in sorted(missing, key=natural_sort_key)
                    ]
                )
                changed = True
            else:
                interactive.append(row)
        if not changed:
            return self
        return IOIMC.trusted(
            self.name,
            self.signature,
            self.num_states,
            self.initial,
            interactive,
            self.markovian,
            self.labels,
            self.state_names,
        )

    def _fully_input_enabled(self) -> bool:
        """Vectorised check that every state enables every input action."""
        index = self._index
        csr = index.interactive_csr
        is_input_edge = index.input_flags[csr.action]
        num_inputs = int(index.input_flags.sum())
        if num_inputs == 0:
            return True
        pairs = unique_sorted(
            csr.source[is_input_edge].astype(np.int64) * len(index.actions)
            + csr.action[is_input_edge]
        )
        distinct_inputs = np.bincount(
            pairs // len(index.actions), minlength=self.num_states
        )
        return bool((distinct_inputs == num_inputs).all())

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
        stable member, or its first member if none is stable.  The tables
        are attached as a derived index; no row is materialised.
        """
        index = self.index()
        interactive_csr = index.interactive_csr
        markovian_csr = index.markovian_csr()
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

        present = present.tolist()
        representative = representative.tolist()
        if union_labels:
            merged: dict[int, set[str]] = {}
            for old, props in self.labels.items():
                merged.setdefault(int(block[old]), set()).update(props)
            labels = {state: frozenset(props) for state, props in merged.items()}
        else:
            labels = {
                new: self.labels[old]
                for new, old in zip(present, representative)
                if old in self.labels
            }
        names = [f"s{index}" for index in range(num_new_states)]
        for new, old in zip(present, representative):
            names[new] = self.state_name(old)
        quotient = IOIMC.trusted(
            self.name,
            self.signature,
            num_new_states,
            int(block[self.initial]),
            None,  # rows materialise lazily from the index attached below
            None,
            labels,
            names,
        )
        quotient._index = index.derive(
            quotient,
            _interactive_csr_from_edges(new_src, new_action, new_tgt, num_new_states),
            _markovian_csr_from_edges(rate_src, rate_sum, rate_tgt, num_new_states),
        )
        return quotient

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
        index = self.index()
        order = np.flatnonzero(reachable)  # ascending old state ids
        new_of_old = np.full(self.num_states, -1, dtype=np.int64)
        new_of_old[order] = np.arange(num_reachable, dtype=np.int64)

        interactive_csr = index.interactive_csr
        picked = gather_row_indices(interactive_csr.indptr, order)
        new_isrc = new_of_old[interactive_csr.source[picked]]
        new_iact = interactive_csr.action[picked]
        new_itgt = new_of_old[interactive_csr.target[picked]]
        markovian_csr = index.markovian_csr()
        picked = gather_row_indices(markovian_csr.indptr, order)
        new_msrc = new_of_old[markovian_csr.source[picked]]
        new_mrate = markovian_csr.rate[picked]
        new_mtgt = new_of_old[markovian_csr.target[picked]]
        labels = {
            int(new_of_old[old]): props
            for old, props in self.labels.items()
            if reachable[old]
        }
        names = (
            [self.state_name(old) for old in order.tolist()]
            if self.state_names
            else None
        )
        restricted = IOIMC.trusted(
            self.name,
            self.signature,
            num_reachable,
            int(new_of_old[self.initial]),
            None,  # rows materialise lazily from the index attached below
            None,
            labels,
            names,
        )
        restricted._index = index.derive(
            restricted,
            _interactive_csr_from_edges(new_isrc, new_iact, new_itgt, num_reachable),
            _markovian_csr_from_edges(new_msrc, new_mrate, new_mtgt, num_reachable),
        )
        return restricted, new_of_old

    def _reachable_mask(self):
        """Boolean mask of states reachable from the initial state.

        Batched BFS over the CSR adjacency: a whole frontier level is
        expanded per step, so the cost is a few array operations per level of
        the reachability tree instead of Python work per transition.
        """
        index = self.index()
        interactive_csr = index.interactive_csr
        markovian_csr = index.markovian_csr()
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

    def reachable_states(self) -> set[int]:
        """Set of states reachable from the initial state."""
        return set(np.flatnonzero(self._reachable_mask()).tolist())

    def renamed(self, name: str) -> "IOIMC":
        """Return a shallow copy carrying a different automaton name."""
        clone = IOIMC.trusted(
            name,
            self.signature,
            self.num_states,
            self.initial,
            self._interactive,
            self._markovian,
            self.labels,
            self.state_names,
        )
        if self._index is not None:
            clone._index = self._index.derive(
                clone, self._index.interactive_csr, self._index._markovian_csr
            )
        return clone

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    # An automaton crosses process boundaries (the composer's worker pool)
    # in whichever of its two representations is authoritative: the Python
    # row tables when no index was ever built, or the flat CSR arrays when
    # one was.  Lazy caches (materialised rows, predecessor tables,
    # transition counts) are never serialised — they are cheap to rebuild
    # and would multiply the payload.  The lazy-row invariant survives by
    # construction: a CSR-path automaton unpickles with rows ``None`` and an
    # index whose Markovian CSR is explicit (materialised here if need be).

    def __getstate__(self) -> dict:
        state = {
            "name": self.name,
            "signature": self.signature,
            "num_states": self.num_states,
            "initial": self.initial,
            "labels": self.labels,
            "state_names": self.state_names,
        }
        index = self._index
        if index is None:
            state["interactive"] = self._interactive
            state["markovian"] = self._markovian
        else:
            icsr = index.interactive_csr
            mcsr = index.markovian_csr()
            state["interactive_csr"] = (icsr.indptr, icsr.source, icsr.action, icsr.target)
            state["markovian_csr"] = (mcsr.indptr, mcsr.source, mcsr.rate, mcsr.target)
        return state

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.signature = state["signature"]
        self.num_states = state["num_states"]
        self.initial = state["initial"]
        self.labels = state["labels"]
        self.state_names = state["state_names"]
        self._transition_counts = None
        if "interactive_csr" in state:
            from .indexed import InteractiveCSR, MarkovianCSR, TransitionIndex

            self._interactive = None
            self._markovian = None
            self._index = TransitionIndex.from_tables(
                self,
                InteractiveCSR(*state["interactive_csr"]),
                MarkovianCSR(*state["markovian_csr"]),
            )
        else:
            self._interactive = state["interactive"]
            self._markovian = state["markovian"]
            self._index = None

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
        """Size statistics used by the benchmarks."""
        return {
            "states": self.num_states,
            "interactive_transitions": self.num_interactive_transitions(),
            "markovian_transitions": self.num_markovian_transitions(),
            "transitions": self.num_transitions(),
        }


def _interactive_csr_from_edges(source, action, target, num_rows: int):
    """Interactive CSR from aligned edge columns (``source`` sorted)."""
    from .indexed import InteractiveCSR

    indptr = csr_indptr(source, num_rows)
    return InteractiveCSR(
        indptr,
        source.astype(np.int32),
        action.astype(np.int32),
        target.astype(np.int32),
    )


def _markovian_csr_from_edges(source, rate, target, num_rows: int):
    """Markovian CSR from aligned edge columns (``source`` sorted)."""
    from .indexed import MarkovianCSR

    indptr = csr_indptr(source, num_rows)
    return MarkovianCSR(
        indptr, source.astype(np.int32), np.asarray(rate), target.astype(np.int32)
    )


def merge_label_sets(label_sets: Iterable[frozenset[str]]) -> frozenset[str]:
    """Union of several label sets (helper shared by composition and lumping)."""
    merged: set[str] = set()
    for labels in label_sets:
        merged.update(labels)
    return frozenset(merged)
