"""Interned-action, integer-indexed CSR view of an I/O-IMC.

The refinement and reduction algorithms spend most of their time asking the
same questions about an automaton over and over: what kind is this action,
which internal transitions leave this state, is this state stable, who are a
state's predecessors.  Answering them through the string-keyed
:class:`~repro.ioimc.actions.Signature` (frozenset membership per query) is
what made the seed implementation quadratic in practice.

:class:`TransitionIndex` answers them in O(1) array lookups instead, and it
is the bridge between the Python-object transition tables of
:class:`~repro.ioimc.IOIMC` and the vectorised (numpy) engines of
:mod:`repro.lumping.refinement` and :mod:`repro.ioimc.composition`:

* action names are *interned* to consecutive integer ids (sorted order, so
  ids are deterministic for a given signature);
* the interactive relation is stored as a flat **CSR adjacency**
  (:class:`InteractiveCSR`): an ``int64`` row-offset array plus aligned
  ``int32`` source/action/target columns in the automaton's transition
  order — the layout the ``np.unique``-based signature grouping and the
  batched product construction operate on directly;
* the Markovian relation is stored the same way (:class:`MarkovianCSR`,
  ``float64`` rate column);
* a stability bit per state and a cached predecessor table are derived
  from the arrays once; the tau closure is derived on demand as another
  CSR table.

An index is built lazily by :meth:`repro.ioimc.IOIMC.index` and cached on the
automaton; I/O-IMCs are immutable after construction, so the cache can never
go stale.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..nputil import csr_indptr, reachable_pairs, unique_sorted
from .actions import ActionKind


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

    @property
    def num_edges(self) -> int:
        return len(self.target)


def _row_offsets(rows, num_states: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(indptr, per-edge source column, edge count) of a list-of-rows table."""
    counts = np.fromiter((len(row) for row in rows), dtype=np.int64, count=num_states)
    indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    source = np.repeat(np.arange(num_states, dtype=np.int32), counts)
    return indptr, source, total


class TransitionIndex:
    """Integer-indexed transition tables of one (immutable) I/O-IMC."""

    __slots__ = (
        "_automaton",
        "actions",
        "id_of",
        "kinds",
        "is_input",
        "is_internal",
        "is_visible",
        "input_flags",
        "internal_flags",
        "visible_flags",
        "interactive_csr",
        "stable",
        "stable_flags",
        "_markovian_csr",
        "_predecessor_csr",
    )

    def __init__(self, automaton) -> None:
        self._automaton = weakref.ref(automaton)
        signature = automaton.signature
        #: Interned action names; the id of an action is its position here.
        self.actions: list[str] = sorted(signature.all_actions)
        self.id_of: dict[str, int] = {
            action: aid for aid, action in enumerate(self.actions)
        }
        self.kinds: list[ActionKind] = [
            signature.kind_of(action) for action in self.actions
        ]
        #: Per-action-id kind masks, as Python lists and numpy bool arrays.
        self._attach_kind_flags()

        #: Flat CSR adjacency of the interactive relation (built eagerly: every
        #: consumer of the index reads it).  The Markovian CSR is
        #: materialised lazily.
        num_states = automaton.num_states
        rows = automaton.interactive
        indptr, source, total = _row_offsets(rows, num_states)
        id_of = self.id_of
        action = np.fromiter(
            (id_of[act] for row in rows for act, _ in row), dtype=np.int32, count=total
        )
        target = np.fromiter(
            (tgt for row in rows for _, tgt in row), dtype=np.int32, count=total
        )
        self._attach_tables(InteractiveCSR(indptr, source, action, target), None)

    @property
    def automaton(self):
        """The automaton this index belongs to.

        Held weakly: the automaton owns its index, and a strong
        back-reference would make every indexed automaton a reference cycle
        that only the cyclic garbage collector frees, so large intermediate
        products would outlive their composition step.
        """
        return self._automaton()

    @classmethod
    def from_tables(
        cls, automaton, interactive_csr: InteractiveCSR, markovian_csr: MarkovianCSR
    ) -> "TransitionIndex":
        """Build an index directly from prebuilt CSR tables.

        Used by transformations that construct an automaton *from* flat
        arrays (batched composition, quotienting, reachability restriction):
        re-deriving the CSR form from the freshly materialised Python rows
        would just redo work.  The caller guarantees that the action ids of
        ``interactive_csr`` index ``sorted(signature.all_actions)``.
        """
        self = cls.__new__(cls)
        self._automaton = weakref.ref(automaton)
        signature = automaton.signature
        self.actions = sorted(signature.all_actions)
        self.id_of = {action: aid for aid, action in enumerate(self.actions)}
        self.kinds = [signature.kind_of(action) for action in self.actions]
        self._attach_kind_flags()
        self._attach_tables(interactive_csr, markovian_csr)
        return self

    def derive(
        self, automaton, interactive_csr: InteractiveCSR, markovian_csr: MarkovianCSR
    ) -> "TransitionIndex":
        """Index of ``automaton`` (same action universe) over new CSR tables.

        Shares every interning table with ``self``; only the per-state
        derived data (stability bits, lazy caches) is rebuilt.  The caller
        guarantees ``automaton.signature`` interns actions identically.
        """
        clone = TransitionIndex.__new__(TransitionIndex)
        clone._automaton = weakref.ref(automaton)
        clone.actions = self.actions
        clone.id_of = self.id_of
        clone.kinds = self.kinds
        clone.is_input = self.is_input
        clone.is_internal = self.is_internal
        clone.is_visible = self.is_visible
        clone.input_flags = self.input_flags
        clone.internal_flags = self.internal_flags
        clone.visible_flags = self.visible_flags
        clone._attach_tables(interactive_csr, markovian_csr)
        return clone

    def with_renamed_actions(self, automaton, rename: dict) -> "TransitionIndex":
        """Index of ``automaton``, whose actions are ``self``'s renamed.

        ``rename`` maps old action names to new ones (non-injective renames,
        e.g. hiding several outputs to ``tau``, are fine); unnamed actions
        keep their name.  The transition structure is untouched, so the
        row-offset/source/target columns — and the structural predecessor
        cache — are shared; only the action column is remapped.
        """
        signature = automaton.signature
        clone = TransitionIndex.__new__(TransitionIndex)
        clone._automaton = weakref.ref(automaton)
        clone.actions = sorted(signature.all_actions)
        clone.id_of = {action: aid for aid, action in enumerate(clone.actions)}
        clone.kinds = [signature.kind_of(action) for action in clone.actions]
        clone._attach_kind_flags()
        remap = np.fromiter(
            (clone.id_of[rename.get(action, action)] for action in self.actions),
            dtype=np.int32,
            count=len(self.actions),
        )
        old = self.interactive_csr
        clone.interactive_csr = InteractiveCSR(
            old.indptr, old.source, remap[old.action], old.target
        )
        clone._compute_stability()
        clone._markovian_csr = self._markovian_csr
        clone._predecessor_csr = self._predecessor_csr
        return clone

    def _attach_kind_flags(self) -> None:
        self.is_input = [k is ActionKind.INPUT for k in self.kinds]
        self.is_internal = [k is ActionKind.INTERNAL for k in self.kinds]
        self.is_visible = [k is not ActionKind.INTERNAL for k in self.kinds]
        self.input_flags = np.array(self.is_input, dtype=bool)
        self.internal_flags = np.array(self.is_internal, dtype=bool)
        self.visible_flags = np.array(self.is_visible, dtype=bool)

    def _attach_tables(
        self,
        interactive_csr: InteractiveCSR,
        markovian_csr: MarkovianCSR | None,
    ) -> None:
        self.interactive_csr = interactive_csr
        self._compute_stability()
        self._markovian_csr = markovian_csr
        self._predecessor_csr = None

    def _compute_stability(self) -> None:
        csr = self.interactive_csr
        urgent = ~self.input_flags[csr.action]
        unstable = np.zeros(len(csr.indptr) - 1, dtype=bool)
        unstable[csr.source[urgent]] = True
        self.stable_flags = ~unstable
        self.stable = self.stable_flags.tolist()

    def adopt(self, automaton, markovian_csr: MarkovianCSR | None = None) -> "TransitionIndex":
        """Re-attach this index to an automaton with the *same* interactive table.

        Used by transformations that only touch Markovian rows (e.g. the
        maximal-progress cut): every interactive-derived table can be shared,
        only the Markovian CSR (passed explicitly, or rebuilt from the rows on
        demand) and the predecessor cache change.
        """
        clone = TransitionIndex.__new__(TransitionIndex)
        clone._automaton = weakref.ref(automaton)
        clone.actions = self.actions
        clone.id_of = self.id_of
        clone.kinds = self.kinds
        clone.is_input = self.is_input
        clone.is_internal = self.is_internal
        clone.is_visible = self.is_visible
        clone.input_flags = self.input_flags
        clone.internal_flags = self.internal_flags
        clone.visible_flags = self.visible_flags
        clone.interactive_csr = self.interactive_csr
        clone.stable = self.stable
        clone.stable_flags = self.stable_flags
        clone._markovian_csr = markovian_csr
        clone._predecessor_csr = None
        return clone

    # ------------------------------------------------------------------ #
    # derived, lazily cached tables
    # ------------------------------------------------------------------ #
    def markovian_csr(self) -> MarkovianCSR:
        """Flat CSR adjacency of the Markovian relation."""
        if self._markovian_csr is None:
            automaton = self.automaton
            rows = automaton.markovian
            indptr, source, total = _row_offsets(rows, automaton.num_states)
            rate = np.fromiter(
                (r for row in rows for r, _ in row), dtype=np.float64, count=total
            )
            target = np.fromiter(
                (tgt for row in rows for _, tgt in row), dtype=np.int32, count=total
            )
            self._markovian_csr = MarkovianCSR(indptr, source, rate, target)
        return self._markovian_csr

    def predecessor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, source)`` CSR of the *observer* relation, deduplicated.

        For every state, the sources of incoming transitions of either kind:
        any predecessor's refinement signature reads the block of this state,
        so this is exactly the observer relation the worklist refinement
        engine needs.  Sources of a state are sorted ascending.
        """
        if self._predecessor_csr is None:
            icsr = self.interactive_csr
            mcsr = self.markovian_csr()
            num_states = len(self.interactive_csr.indptr) - 1
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
        num_states = len(self.interactive_csr.indptr) - 1
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

    def summary(self) -> dict[str, int]:
        """Size statistics (mirrors :meth:`repro.ioimc.IOIMC.summary`)."""
        return self.automaton.summary()

    def __reduce__(self):
        # A standalone pickle of an index rides on its automaton: the
        # automaton serialises its authoritative tables (see
        # ``IOIMC.__getstate__``) and ``index()`` reattaches an equivalent
        # index on the other side — keeping the automaton<->index backref a
        # single shared pair instead of two disconnected copies.
        return (_index_of, (self.automaton,))


def _index_of(automaton) -> TransitionIndex:
    """Unpickling helper: the (possibly freshly rebuilt) index of an automaton."""
    return automaton.index()


__all__ = ["InteractiveCSR", "MarkovianCSR", "TransitionIndex"]
