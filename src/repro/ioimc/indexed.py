"""Interned-action, integer-indexed CSR transition tables of an I/O-IMC.

The refinement and reduction algorithms spend most of their time asking the
same questions about an automaton over and over: what kind is this action,
which internal transitions leave this state, is this state stable, who are a
state's predecessors.  Answering them through the string-keyed
:class:`~repro.ioimc.actions.Signature` (frozenset membership per query) is
what made the seed implementation quadratic in practice.

:class:`TransitionIndex` is the one transition store of an
:class:`~repro.ioimc.IOIMC` and answers those questions in O(1) array
lookups; the vectorised engines of :mod:`repro.lumping.refinement` and
:mod:`repro.ioimc.composition` read its arrays directly:

* action names are *interned* to consecutive integer ids (sorted order, so
  ids are deterministic for a given signature); the interning tables depend
  only on the signature and are shared by every index over an equal one;
* the interactive relation is stored as a flat **CSR adjacency**
  (:class:`InteractiveCSR`): an ``int64`` row-offset array plus aligned
  ``int32`` source/action/target columns in the automaton's transition
  order — the layout the ``np.unique``-based signature grouping and the
  batched product construction operate on directly;
* the Markovian relation is stored the same way (:class:`MarkovianCSR`,
  ``float64`` rate column);
* a stability bit per state and a predecessor table are derived from the
  arrays on first use and cached; the tau closure is derived on demand as
  another CSR table.

An index holds no reference to its automaton.  I/O-IMCs are immutable after
construction, so the derived caches can never go stale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..nputil import csr_indptr, reachable_pairs, unique_sorted
from .actions import ActionKind, Signature


class InteractiveCSR:
    """Flat-array (CSR) form of an automaton's interactive relation.

    The edges of state ``s`` occupy positions ``indptr[s]:indptr[s + 1]`` of
    the aligned columns, in the automaton's transition order:

    ``indptr``
        ``int64`` row offsets, length ``num_states + 1``.
    ``source``
        ``int32`` source state per edge (the CSR expansion of ``indptr``,
        stored because every vectorised consumer needs it).
    ``action``
        ``int32`` interned action id per edge.
    ``target``
        ``int32`` target state per edge.
    """

    __slots__ = ("indptr", "source", "action", "target")

    def __init__(
        self,
        indptr: np.ndarray,
        source: np.ndarray,
        action: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.source = source
        self.action = action
        self.target = target

    @classmethod
    def from_edges(cls, source, action, target, num_rows: int) -> "InteractiveCSR":
        """CSR table from aligned edge columns (``source`` sorted)."""
        return cls(
            csr_indptr(source, num_rows),
            source.astype(np.int32),
            action.astype(np.int32),
            target.astype(np.int32),
        )

    @property
    def num_edges(self) -> int:
        return len(self.target)


class MarkovianCSR:
    """Flat-array (CSR) form of an automaton's Markovian relation.

    Same layout as :class:`InteractiveCSR` with a ``float64`` ``rate`` column
    instead of the action column.
    """

    __slots__ = ("indptr", "source", "rate", "target")

    def __init__(
        self,
        indptr: np.ndarray,
        source: np.ndarray,
        rate: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.source = source
        self.rate = rate
        self.target = target

    @classmethod
    def from_edges(cls, source, rate, target, num_rows: int) -> "MarkovianCSR":
        """CSR table from aligned edge columns (``source`` sorted)."""
        return cls(
            csr_indptr(source, num_rows),
            source.astype(np.int32),
            np.asarray(rate),
            target.astype(np.int32),
        )

    @property
    def num_edges(self) -> int:
        return len(self.target)


class ActionTable(NamedTuple):
    """Action interning of one signature: ``actions`` lists the names in
    sorted order (an action's id is its position), ``id_of`` inverts it, and
    the ``*_flags`` are read-only per-id kind masks."""

    actions: list[str]
    id_of: dict[str, int]
    kinds: list[ActionKind]
    input_flags: np.ndarray
    internal_flags: np.ndarray
    visible_flags: np.ndarray


@lru_cache(maxsize=4096)
def intern_actions(signature: Signature) -> ActionTable:
    """The :class:`ActionTable` of ``signature``, memoised: every index over
    an equal signature shares it, so callers must not mutate it."""
    actions = sorted(signature.all_actions)
    kinds = [signature.kind_of(action) for action in actions]
    flags = [
        np.array([kind is ActionKind.INPUT for kind in kinds], dtype=bool),
        np.array([kind is ActionKind.INTERNAL for kind in kinds], dtype=bool),
        np.array([kind is not ActionKind.INTERNAL for kind in kinds], dtype=bool),
    ]
    for flag in flags:
        flag.flags.writeable = False
    return ActionTable(
        actions, {action: aid for aid, action in enumerate(actions)}, kinds, *flags
    )


class TransitionIndex:
    """Integer-indexed transition tables of one (immutable) I/O-IMC.

    The caller guarantees that the action ids of ``interactive_csr`` index
    ``sorted(signature.all_actions)``.
    """

    __slots__ = (
        "actions",
        "id_of",
        "kinds",
        "input_flags",
        "internal_flags",
        "visible_flags",
        "interactive_csr",
        "markovian_csr",
        "_stable_flags",
        "_predecessor_csr",
    )

    def __init__(
        self,
        signature: Signature,
        interactive_csr: InteractiveCSR,
        markovian_csr: MarkovianCSR,
    ) -> None:
        (
            self.actions,
            self.id_of,
            self.kinds,
            self.input_flags,
            self.internal_flags,
            self.visible_flags,
        ) = intern_actions(signature)
        self.interactive_csr = interactive_csr
        self.markovian_csr = markovian_csr
        self._stable_flags = None
        self._predecessor_csr = None

    # ------------------------------------------------------------------ #
    # derived, lazily cached tables
    # ------------------------------------------------------------------ #
    @property
    def stable_flags(self) -> np.ndarray:
        """Per state: no output or internal transition is enabled."""
        if self._stable_flags is None:
            csr = self.interactive_csr
            urgent = ~self.input_flags[csr.action]
            unstable = np.zeros(len(csr.indptr) - 1, dtype=bool)
            unstable[csr.source[urgent]] = True
            self._stable_flags = ~unstable
        return self._stable_flags

    def predecessor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, source)`` CSR of the *observer* relation, deduplicated.

        For every state, the sources of incoming transitions of either kind:
        any predecessor's refinement signature reads the block of this state,
        so this is exactly the observer relation the worklist refinement
        engine needs.  Sources of a state are sorted ascending.
        """
        if self._predecessor_csr is None:
            icsr = self.interactive_csr
            mcsr = self.markovian_csr
            num_states = len(icsr.indptr) - 1
            target = np.concatenate([icsr.target, mcsr.target])
            source = np.concatenate([icsr.source, mcsr.source])
            # Dedupe (target, source) pairs, then split runs by target.
            code = target.astype(np.int64) * num_states + source
            code = unique_sorted(code)
            by_target, sources = np.divmod(code, num_states)
            indptr = csr_indptr(by_target, num_states)
            self._predecessor_csr = (indptr, sources.astype(np.int32))
        return self._predecessor_csr

    def tau_closure_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, post)`` CSR of the tau closure: row ``s`` lists, in
        ascending order, every state reachable from ``s`` by ``tau*``
        (``s`` itself included).

        One batched frontier expansion over the internal edges from every
        state at once (:func:`repro.nputil.reachable_pairs`, the routine the
        branching engine runs over its inert edges).
        """
        csr = self.interactive_csr
        num_states = len(csr.indptr) - 1
        internal = self.internal_flags[csr.action]
        owner, post = np.divmod(
            reachable_pairs(
                csr_indptr(csr.source[internal], num_states),
                csr.target[internal],
                np.arange(num_states, dtype=np.int64),
                num_states,
            ),
            num_states,
        )
        return csr_indptr(owner, num_states), post


__all__ = [
    "ActionTable",
    "InteractiveCSR",
    "MarkovianCSR",
    "TransitionIndex",
    "intern_actions",
]
