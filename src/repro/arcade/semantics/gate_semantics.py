"""I/O-IMC semantics of fault-tree gates (the system failure criterion).

Section 3.4 of the paper represents the condition under which the whole
system is failed as a fault tree — an AND/OR expression (with the K-out-of-N
voting gate as a shorthand) whose literals are failure modes of the basic
components.  Each gate has its own I/O-IMC (following [6]): it listens to
the failure and restoration signals of its inputs, keeps track of which
inputs are currently failed, and announces ``<gate>.failed`` /
``<gate>.up`` whenever its condition becomes true / false.  Gates are
*repairable*: inputs may toggle arbitrarily often.

The same construction doubles as a *dependency monitor*: the expressions
that drive operational-mode switches or destructive functional dependencies
of a basic component can be compiled into such a gate, whose output the
component then watches as a single signal (this is how the translator keeps
component I/O-IMCs small for complex trigger expressions).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ModelError
from ...ioimc import IOIMC, IOIMCBuilder, Signature
from ..expressions import Literal
from ..model import ArcadeModel
from . import signals


@dataclass(frozen=True)
class GateInput:
    """One input of a gate: a component failure literal or another gate."""

    set_signals: tuple[str, ...]
    clear_signals: tuple[str, ...]
    description: str

    @staticmethod
    def from_literal(literal: Literal, model: ArcadeModel) -> "GateInput":
        failure_signals = signals.component_failure_signals(
            model.component(literal.component)
        )
        return GateInput(
            tuple(signals.literal_set_signals(literal, failure_signals)),
            (signals.literal_clear_signal(literal),),
            str(literal),
        )

    @staticmethod
    def from_gate(gate_name: str) -> "GateInput":
        return GateInput(
            (signals.gate_failed_signal(gate_name),),
            (signals.up_signal(gate_name),),
            gate_name,
        )


@dataclass(frozen=True)
class VotingGate:
    """A K-out-of-N gate over a list of inputs (AND = N/N, OR = 1/N)."""

    name: str
    k: int
    inputs: tuple[GateInput, ...]
    labels_when_failed: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not 1 <= self.k <= len(self.inputs):
            raise ModelError(
                f"gate {self.name}: need 1 <= K <= N, got K={self.k}, N={len(self.inputs)}"
            )


@dataclass(frozen=True)
class _GateState:
    failed_inputs: frozenset[int]
    announced: bool

    def name(self) -> str:
        bits = ",".join(str(index) for index in sorted(self.failed_inputs)) or "-"
        return f"[{bits}|{'F' if self.announced else 'ok'}]"


class GateTranslator:
    """Builds the I/O-IMC of one voting gate."""

    def __init__(self, gate: VotingGate):
        self.gate = gate
        #: Input signals in the gate's *structural* order (per input: set
        #: signals, then clear signals; duplicates dropped).  Exploring the
        #: state space in this order — instead of sorted signal names —
        #: makes the generated automaton's state numbering a function of the
        #: gate's structure alone, so replicated gates (the per-cluster
        #: voters of the DDS) are identical up to signal renaming, which is
        #: what lets the quotient cache recognise them.
        ordered: list[str] = []
        seen: set[str] = set()
        for gate_input in gate.inputs:
            for signal in gate_input.set_signals + gate_input.clear_signals:
                if signal not in seen:
                    seen.add(signal)
                    ordered.append(signal)
        self._ordered_inputs = tuple(ordered)

    def key(self) -> VotingGate:
        """Hashable identity of the block: the frozen gate spec."""
        return self.gate

    def signature(self) -> Signature:
        inputs: set[str] = set()
        for gate_input in self.gate.inputs:
            inputs.update(gate_input.set_signals)
            inputs.update(gate_input.clear_signals)
        outputs = {
            signals.gate_failed_signal(self.gate.name),
            signals.up_signal(self.gate.name),
        }
        return Signature.create(inputs=inputs, outputs=outputs)

    def _condition(self, state: _GateState) -> bool:
        return len(state.failed_inputs) >= self.gate.k

    def input_target(self, state: _GateState, signal: str) -> _GateState:
        failed = set(state.failed_inputs)
        for index, gate_input in enumerate(self.gate.inputs):
            if signal in gate_input.set_signals:
                failed.add(index)
            if signal in gate_input.clear_signals:
                failed.discard(index)
        return _GateState(frozenset(failed), state.announced)

    def output_transitions(self, state: _GateState) -> list[tuple[str, _GateState]]:
        condition = self._condition(state)
        if condition == state.announced:
            return []
        target = _GateState(state.failed_inputs, condition)
        if condition:
            return [(signals.gate_failed_signal(self.gate.name), target)]
        return [(signals.up_signal(self.gate.name), target)]

    def build(self) -> IOIMC:
        signature = self.signature()
        builder = IOIMCBuilder(self.gate.name, signature)
        initial = _GateState(frozenset(), False)
        builder.state(initial.name(), initial=True)
        seen = {initial}
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            source = state.name()
            if self._condition(state) and self.gate.labels_when_failed:
                builder.label(source, *self.gate.labels_when_failed)

            def visit(target: _GateState) -> None:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)

            for signal in self._ordered_inputs:
                target = self.input_target(state, signal)
                if target != state:
                    builder.interactive(source, signal, target.name())
                    visit(target)
            for action, target in self.output_transitions(state):
                builder.interactive(source, action, target.name())
                visit(target)
        return builder.build()


def build_gate_ioimc(gate: VotingGate) -> IOIMC:
    """Translate one fault-tree gate into its I/O-IMC."""
    return GateTranslator(gate).build()


__all__ = ["GateInput", "GateTranslator", "VotingGate", "build_gate_ioimc"]
