"""Convenience builder for constructing I/O-IMCs with named states.

The semantic translation of Arcade building blocks (Section 3 of the paper)
is far easier to write — and to review against the paper's figures — when
states can be referred to by descriptive names such as ``"UP"`` or
``"DOWN_M"`` instead of raw integers.  :class:`IOIMCBuilder` collects named
states and transitions and produces an immutable :class:`IOIMC`.
"""

from __future__ import annotations

import math

from ..errors import ModelError
from .actions import Signature
from .ioimc import IOIMC


class IOIMCBuilder:
    """Incrementally build an :class:`IOIMC` using string state names."""

    def __init__(self, name: str, signature: Signature) -> None:
        self.name = name
        self.signature = signature
        self._state_index: dict[str, int] = {}
        self._state_names: list[str] = []
        self._labels: dict[int, set[str]] = {}
        self._interactive: list[list[tuple[str, int]]] = []
        self._markovian: list[list[tuple[float, int]]] = []
        self._initial: int | None = None

    # ------------------------------------------------------------------ #
    # states
    # ------------------------------------------------------------------ #
    def state(self, name: str, *, labels: set[str] | None = None, initial: bool = False) -> int:
        """Register (or look up) the state called ``name`` and return its index."""
        if name in self._state_index:
            index = self._state_index[name]
        else:
            index = len(self._state_names)
            self._state_index[name] = index
            self._state_names.append(name)
            self._interactive.append([])
            self._markovian.append([])
        if labels:
            self._labels.setdefault(index, set()).update(labels)
        if initial:
            if self._initial is not None and self._initial != index:
                raise ModelError(f"{self.name}: initial state declared twice")
            self._initial = index
        return index

    def label(self, state_name: str, *labels: str) -> None:
        """Attach atomic propositions to an existing state."""
        index = self.state(state_name)
        self._labels.setdefault(index, set()).update(labels)

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #
    def interactive(self, source: str, action: str, target: str) -> None:
        """Add an interactive transition (the action must be in the signature)."""
        if action not in self.signature.all_actions:
            raise ModelError(
                f"{self.name}: action {action!r} is not declared in the signature"
            )
        src = self.state(source)
        dst = self.state(target)
        entry = (action, dst)
        if entry not in self._interactive[src]:
            self._interactive[src].append(entry)

    def markovian(self, source: str, rate: float, target: str) -> None:
        """Add a Markovian transition with exponential ``rate``."""
        if not (rate > 0 and math.isfinite(rate)):
            raise ModelError(
                f"{self.name}: Markovian rate must be finite and positive, got {rate}"
            )
        src = self.state(source)
        dst = self.state(target)
        self._markovian[src].append((rate, dst))

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def build(self, *, input_enabled: bool = True) -> IOIMC:
        """Finalize the automaton.

        When ``input_enabled`` is ``True`` (the default), implicit input
        self-loops are materialised for every state/input pair without an
        explicit transition, mirroring the convention of the paper's figures.
        """
        if self._initial is None:
            raise ModelError(f"{self.name}: no initial state was declared")
        automaton = IOIMC(
            self.name,
            self.signature,
            len(self._state_names),
            self._initial,
            self._interactive,
            self._markovian,
            {state: frozenset(props) for state, props in self._labels.items()},
            self._state_names,
        )
        if input_enabled:
            automaton = automaton.ensure_input_enabled()
        return automaton
