"""The hiding operator for I/O-IMCs.

``hide A in P`` (Section 2 of the paper) turns the output actions in the set
``A`` into internal actions, so that no further synchronisation over them is
possible.  In the compositional aggregation pipeline an action is hidden as
soon as every component that listens to it has been composed in — this is
what makes the subsequent minimisation step effective.

Hidden actions are renamed to the anonymous internal action ``tau``: internal
actions are unobservable, so their identity is irrelevant for every measure
computed downstream, and a single anonymous name lets the minimisation merge
states that only differ in the *name* of a hidden signal.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .actions import TAU, Signature
from .indexed import InteractiveCSR, intern_actions
from .ioimc import IOIMC


def hide(automaton: IOIMC, actions: Iterable[str]) -> IOIMC:
    """Return ``hide actions in automaton``, the hidden actions renamed to ``tau``.

    ``actions`` are the output actions to hide; actions not present in the
    signature are silently ignored (this keeps the composer's hiding
    schedule simple).  Hiding only renames actions, so the result remaps
    the action column and shares every other column with ``automaton``.
    """
    to_hide = frozenset(actions) & automaton.signature.outputs
    if not to_hide:
        return automaton
    old = automaton.signature
    signature = Signature(old.inputs, old.outputs - to_hide, old.internals | {TAU})
    index = automaton.index()
    new_id_of = intern_actions(signature).id_of
    remap = np.fromiter(
        (new_id_of[TAU if action in to_hide else action] for action in index.actions),
        dtype=np.int32,
        count=len(index.actions),
    )
    csr = index.interactive_csr
    return IOIMC.from_tables(
        automaton.name,
        signature,
        automaton.initial,
        InteractiveCSR(csr.indptr, csr.source, remap[csr.action], csr.target),
        index.markovian_csr,
        automaton.labels,
        automaton.name_source,
    )


def hide_all_outputs(automaton: IOIMC) -> IOIMC:
    """Hide every output action (used on the fully composed, closed system)."""
    return hide(automaton, automaton.signature.outputs)


__all__ = ["hide", "hide_all_outputs"]
