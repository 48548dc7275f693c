"""Input/Output Interactive Markov Chains: the semantic substrate of Arcade.

This package provides the I/O-IMC formalism of Section 2 of the paper:

* :class:`~repro.ioimc.ioimc.IOIMC` — the transition-system data structure,
* :class:`~repro.ioimc.actions.Signature` — input/output/internal action sets,
* :func:`~repro.ioimc.composition.compose` — the parallel composition ``||``,
* :func:`~repro.ioimc.hiding.hide` — the hiding operator,
* :class:`~repro.ioimc.builder.IOIMCBuilder` — a named-state construction aid,
* :class:`~repro.ioimc.indexed.TransitionIndex` — an automaton's one
  transition store: interned-action CSR columns (flat numpy adjacency
  arrays) the vectorised composition and refinement/reduction engines
  operate on, with
  :class:`~repro.ioimc.indexed.InteractiveCSR` /
  :class:`~repro.ioimc.indexed.MarkovianCSR` as the raw table layout.
"""

from .actions import TAU, ActionKind, Signature
from .builder import IOIMCBuilder
from .composition import compose, compose_many
from .hiding import hide, hide_all_outputs
from .indexed import InteractiveCSR, MarkovianCSR, TransitionIndex
from .ioimc import InteractiveTransition, IOIMC, MarkovianTransition
from .visualization import to_dot, to_text

__all__ = [
    "TAU",
    "ActionKind",
    "Signature",
    "IOIMC",
    "IOIMCBuilder",
    "InteractiveCSR",
    "MarkovianCSR",
    "TransitionIndex",
    "InteractiveTransition",
    "MarkovianTransition",
    "compose",
    "compose_many",
    "hide",
    "hide_all_outputs",
    "to_dot",
    "to_text",
]
