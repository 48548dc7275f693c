"""I/O-IMC semantics of spare management units (Figures 8 and 9).

The one-primary/one-spare unit of Fig. 8 activates its spare when the
primary announces a failure and deactivates it again when the primary is
repaired.  Two extensions of the paper are implemented as well:

* a phase-type *failover time* between the primary's failure and the
  activation of the spare (the extensibility example of Section 3.6, Fig. 9);
* several spares per primary (Section 3.3, configuration 2): the unit then
  also observes the spares' failure signals and activates the first
  operational spare, switching to the next one when the active spare fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...ioimc import IOIMC, IOIMCBuilder, Signature
from ..model import ArcadeModel
from ..spare_unit import SpareManagementUnit
from . import signals
from .bc_semantics import start_phase


@dataclass(frozen=True)
class _SMUState:
    """One state of the spare management unit's I/O-IMC."""

    primary_down: bool
    spares_down: tuple[bool, ...]
    active: int | None
    failover_phase: int | None
    pending_activate: bool

    def name(self) -> str:
        spares = "".join("1" if down else "0" for down in self.spares_down)
        active = "-" if self.active is None else str(self.active)
        phase = "-" if self.failover_phase is None else str(self.failover_phase)
        flags = "P" if self.pending_activate else "."
        primary = "D" if self.primary_down else "U"
        return f"[{primary}|{spares}|act:{active}|fo:{phase}|{flags}]"


class SpareUnitTranslator:
    """Builds the I/O-IMC of one spare management unit.

    Everything :meth:`build` reads of the model is resolved here, so
    :meth:`key` names the block exactly: equal keys build equal blocks.
    """

    def __init__(self, unit: SpareManagementUnit, model: ArcadeModel):
        self.unit = unit
        #: Whether the unit observes its spares' health (needed with >1 spare;
        #: the single-spare unit of Fig. 8 does not listen to its spare).
        self.observes_spares = len(unit.spares) > 1
        self.primary_signals = tuple(
            signals.component_failure_signals(model.component(unit.primary))
        )
        #: Failure signals per spare, in activation preference order.
        self.spare_signals = tuple(
            tuple(signals.component_failure_signals(model.component(spare)))
            for spare in unit.spares
        )

    def key(self) -> tuple:
        """Hashable identity of the block: the fields :meth:`build` reads."""
        return (self.unit, self.primary_signals, self.spare_signals)

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #
    def signature(self) -> Signature:
        inputs = set(self.primary_signals)
        inputs.add(signals.up_signal(self.unit.primary))
        if self.observes_spares:
            for spare, failure_signals in zip(self.unit.spares, self.spare_signals):
                inputs.update(failure_signals)
                inputs.add(signals.up_signal(spare))
        outputs = set()
        for spare in self.unit.spares:
            outputs.add(signals.activate_signal(spare))
            outputs.add(signals.deactivate_signal(spare))
        return Signature.create(inputs=inputs, outputs=outputs)

    # ------------------------------------------------------------------ #
    # state transformers
    # ------------------------------------------------------------------ #
    def _desired_spare(self, state: _SMUState) -> int | None:
        """The spare that should be active: the first operational one."""
        if not state.primary_down:
            return None
        for index, down in enumerate(state.spares_down):
            if not down:
                return index
        return None

    def _normalize(self, state: _SMUState) -> _SMUState:
        """Start or cancel the failover delay according to the current need."""
        needs_activation = (
            state.primary_down
            and state.active is None
            and self._desired_spare(state) is not None
        )
        failover = self.unit.failover
        if not needs_activation:
            if state.failover_phase is not None or state.pending_activate:
                return _SMUState(
                    state.primary_down, state.spares_down, state.active, None, False
                )
            return state
        if state.pending_activate:
            return state
        if failover is None:
            return _SMUState(
                state.primary_down, state.spares_down, state.active, None, True
            )
        if state.failover_phase is None:
            return _SMUState(
                state.primary_down,
                state.spares_down,
                state.active,
                start_phase(failover),
                False,
            )
        return state

    def initial_state(self) -> _SMUState:
        return _SMUState(
            False, tuple(False for _ in self.unit.spares), None, None, False
        )

    def input_target(self, state: _SMUState, signal: str) -> _SMUState:
        primary_down = state.primary_down
        spares_down = list(state.spares_down)
        if signal in self.primary_signals:
            primary_down = True
        elif signal == signals.up_signal(self.unit.primary):
            primary_down = False
        elif self.observes_spares:
            for index, spare in enumerate(self.unit.spares):
                if signal in self.spare_signals[index]:
                    spares_down[index] = True
                elif signal == signals.up_signal(spare):
                    spares_down[index] = False
        return self._normalize(
            _SMUState(
                primary_down,
                tuple(spares_down),
                state.active,
                state.failover_phase,
                state.pending_activate,
            )
        )

    def output_transitions(self, state: _SMUState) -> list[tuple[str, _SMUState]]:
        transitions: list[tuple[str, _SMUState]] = []
        if state.active is not None:
            active_failed = self.observes_spares and state.spares_down[state.active]
            if not state.primary_down or active_failed:
                target = self._normalize(
                    _SMUState(
                        state.primary_down, state.spares_down, None, None, False
                    )
                )
                transitions.append(
                    (signals.deactivate_signal(self.unit.spares[state.active]), target)
                )
                return transitions
        if state.pending_activate:
            desired = self._desired_spare(state)
            if desired is not None:
                target = _SMUState(
                    state.primary_down, state.spares_down, desired, None, False
                )
                transitions.append(
                    (signals.activate_signal(self.unit.spares[desired]), target)
                )
        return transitions

    def markovian_transitions(self, state: _SMUState) -> list[tuple[float, _SMUState]]:
        if state.failover_phase is None or self.unit.failover is None:
            return []
        distribution = self.unit.failover
        transitions: list[tuple[float, _SMUState]] = []
        for source, rate, target in distribution.transitions:
            if source != state.failover_phase:
                continue
            transitions.append(
                (
                    rate,
                    _SMUState(
                        state.primary_down, state.spares_down, state.active, target, False
                    ),
                )
            )
        for phase, rate in distribution.completions:
            if phase != state.failover_phase:
                continue
            transitions.append(
                (
                    rate,
                    _SMUState(
                        state.primary_down, state.spares_down, state.active, None, True
                    ),
                )
            )
        return transitions

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self) -> IOIMC:
        signature = self.signature()
        builder = IOIMCBuilder(self.unit.name, signature)
        initial = self.initial_state()
        builder.state(initial.name(), initial=True)
        seen = {initial}
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            source = state.name()

            def visit(target: _SMUState) -> None:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)

            for signal in sorted(signature.inputs):
                target = self.input_target(state, signal)
                if target != state:
                    builder.interactive(source, signal, target.name())
                    visit(target)
            for action, target in self.output_transitions(state):
                builder.interactive(source, action, target.name())
                visit(target)
            for rate, target in self.markovian_transitions(state):
                builder.markovian(source, rate, target.name())
                visit(target)
        return builder.build()


def build_spare_unit_ioimc(unit: SpareManagementUnit, model: ArcadeModel) -> IOIMC:
    """Translate one spare management unit into its I/O-IMC (Figures 8/9)."""
    return SpareUnitTranslator(unit, model).build()


__all__ = ["SpareUnitTranslator", "build_spare_unit_ioimc"]
