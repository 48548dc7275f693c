"""I/O-IMC semantics of basic components (Figures 2-5 of the paper).

The I/O-IMC of a basic component is the superposition of its failure model
(Fig. 3/4) onto each of its operational states (Fig. 2), yielding the model
of Fig. 5.  Rather than drawing the two layers separately and gluing them
together, the construction below explores the reachable state space of one
product directly.  A component state consists of

* the truth value of every failure literal the component watches (these
  drive the expression-triggered operational-mode groups and the destructive
  functional dependency),
* the activation bit when the component is a spare (driven by the
  ``activate``/``deactivate`` signals of its spare management unit),
* a bookkeeping bit for the "inaccessibility announced as failure" signal,
* the failure status: operational (with the current phase of its phase-type
  time-to-failure distribution), a pending failure announcement, down in a
  particular failure mode, or a pending restoration announcement.

Mode switches preserve the current phase of the time-to-failure distribution
when the new operational state's distribution has the same number of phases
(the "rate doubles" reading of the reactor-cooling-system pumps); otherwise
the phase restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...distributions import PhaseType
from ...errors import ModelError
from ...ioimc import IOIMC, IOIMCBuilder, Signature
from ..component import BasicComponent
from ..expressions import And, Expression, KOutOfN, Literal, Or
from ..model import ArcadeModel
from ..operational_modes import OMGroupKind
from . import signals


@dataclass(frozen=True)
class _Status:
    """Failure status of the component."""

    kind: str  # "up" | "pending_fail" | "down" | "pending_up"
    detail: int | str | None = None

    def __str__(self) -> str:
        if self.detail is None:
            return self.kind
        return f"{self.kind}({self.detail})"


@dataclass(frozen=True)
class _BCState:
    """One state of the component's I/O-IMC."""

    literal_values: tuple[bool, ...]
    active: bool
    announced_inaccessible: bool
    status: _Status

    def name(self) -> str:
        bits = "".join("1" if value else "0" for value in self.literal_values)
        flags = ("A" if self.active else "-") + ("I" if self.announced_inaccessible else "-")
        return f"[{bits}|{flags}|{self.status}]"


def evaluate_expression(expression: Expression, values: dict[Literal, bool]) -> bool:
    """Evaluate a failure expression against a literal assignment."""
    if isinstance(expression, Literal):
        return values[expression]
    if isinstance(expression, And):
        return all(evaluate_expression(child, values) for child in expression.children)
    if isinstance(expression, Or):
        return any(evaluate_expression(child, values) for child in expression.children)
    if isinstance(expression, KOutOfN):
        count = sum(
            1 for child in expression.children if evaluate_expression(child, values)
        )
        return count >= expression.k
    raise ModelError(f"unknown expression node {expression!r}")


def start_phase(distribution: PhaseType) -> int:
    """The (unique) starting phase of a deterministic-start distribution."""
    for phase, probability in enumerate(distribution.initial):
        if probability > 0:
            return phase
    raise ModelError("phase-type distribution has no starting phase")


class ComponentTranslator:
    """Builds the I/O-IMC of one basic component within a model context.

    Everything :meth:`build` reads of the model is resolved here, so
    :meth:`key` names the block exactly: equal keys build equal blocks.
    """

    def __init__(self, component: BasicComponent, model: ArcadeModel):
        #: The spec without its repair distributions: only the repair unit
        #: reads those, so a repair-rate change does not rebuild the component.
        self.component = replace(component, time_to_repairs=(), time_to_repair_df=None)
        self.repairable = model.is_repairable(component.name)
        #: ``(name, failure signals)`` of every watched component.
        self.watched = tuple(
            (name, tuple(signals.component_failure_signals(model.component(name))))
            for name in sorted(component.dependencies())
        )
        self.spare_capable = component.is_spare_capable
        self.accessibility_group = component.group_of_kind(
            OMGroupKind.ACCESSIBLE_INACCESSIBLE
        )
        self.announces_inaccessibility = (
            self.accessibility_group is not None and component.inaccessible_means_down
        )
        self.literals = self._collect_literals()
        self.literal_index = {literal: index for index, literal in enumerate(self.literals)}
        self.watch_effects = self._build_watch_effects()

    def key(self) -> tuple:
        """Hashable identity of the block: the fields :meth:`build` reads."""
        return (self.component, self.repairable, self.watched)

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #
    def _collect_literals(self) -> list[Literal]:
        literals: set[Literal] = set()
        for group in self.component.operational_modes:
            for trigger in group.triggers:
                literals.update(trigger.atoms())
        if self.component.destructive_fdep is not None:
            literals.update(self.component.destructive_fdep.atoms())
        return sorted(literals, key=str)

    def _build_watch_effects(self) -> dict[str, tuple[frozenset[int], frozenset[int]]]:
        """Map each watched signal to the literal indices it sets / clears."""
        effects: dict[str, tuple[set[int], set[int]]] = {}

        def entry(signal: str) -> tuple[set[int], set[int]]:
            return effects.setdefault(signal, (set(), set()))

        watched = dict(self.watched)
        for index, literal in enumerate(self.literals):
            for signal in signals.literal_set_signals(literal, watched[literal.component]):
                entry(signal)[0].add(index)
            entry(signals.literal_clear_signal(literal))[1].add(index)
        return {
            signal: (frozenset(sets), frozenset(clears))
            for signal, (sets, clears) in effects.items()
        }

    def signature(self) -> Signature:
        """Action signature of the component's I/O-IMC."""
        inputs = set(self.watch_effects)
        if self.repairable:
            inputs.add(signals.repaired_signal(self.component.name))
        if self.spare_capable:
            inputs.add(signals.activate_signal(self.component.name))
            inputs.add(signals.deactivate_signal(self.component.name))
        outputs = set(signals.component_failure_signals(self.component))
        outputs.add(signals.up_signal(self.component.name))
        return Signature.create(inputs=inputs, outputs=outputs)

    # ------------------------------------------------------------------ #
    # derived state information
    # ------------------------------------------------------------------ #
    def _literal_dict(self, state: _BCState) -> dict[Literal, bool]:
        return {
            literal: state.literal_values[index]
            for literal, index in self.literal_index.items()
        }

    def _mode_indices(self, state: _BCState) -> tuple[int, ...]:
        values = self._literal_dict(state)
        indices = []
        for group in self.component.operational_modes:
            if group.kind is OMGroupKind.ACTIVE_INACTIVE:
                indices.append(1 if state.active else 0)
                continue
            index = 0
            for level, trigger in enumerate(group.triggers, start=1):
                if evaluate_expression(trigger, values):
                    index = level
            indices.append(index)
        return tuple(indices)

    def operational_state_index(self, state: _BCState) -> int:
        """Index of the component's operational state (product order)."""
        indices = self._mode_indices(state)
        index = 0
        for group, mode_index in zip(self.component.operational_modes, indices):
            index = index * group.num_modes + mode_index
        return index

    def _current_ttf(self, state: _BCState) -> PhaseType | None:
        return self.component.time_to_failure_of(self.operational_state_index(state))

    def _is_inaccessible(self, state: _BCState) -> bool:
        if self.accessibility_group is None:
            return False
        position = self.component.operational_modes.index(self.accessibility_group)
        return self._mode_indices(state)[position] > 0

    def _df_active(self, state: _BCState) -> bool:
        if self.component.destructive_fdep is None:
            return False
        return evaluate_expression(self.component.destructive_fdep, self._literal_dict(state))

    # ------------------------------------------------------------------ #
    # state transformers
    # ------------------------------------------------------------------ #
    def _normalize(self, state: _BCState) -> _BCState:
        """Apply zero-time consequences of the current state.

        An operational component whose destructive-functional-dependency
        expression holds immediately moves to the pending ``failed.df``
        announcement (Fig. 3).  The stored phase index is also clamped to the
        current distribution's phase range.
        """
        if state.status.kind != "up":
            return state
        if self._df_active(state):
            return _BCState(
                state.literal_values,
                state.active,
                state.announced_inaccessible,
                _Status("pending_fail", "df"),
            )
        distribution = self._current_ttf(state)
        phase = state.status.detail or 0
        if distribution is not None and phase >= distribution.num_phases:
            phase = start_phase(distribution)
        if phase != state.status.detail:
            return _BCState(
                state.literal_values,
                state.active,
                state.announced_inaccessible,
                _Status("up", phase),
            )
        return state

    def _fresh_up_status(self, state: _BCState) -> _Status:
        """Status for a component that just became operational again."""
        probe = _BCState(state.literal_values, state.active, state.announced_inaccessible, _Status("up", 0))
        distribution = self._current_ttf(probe)
        phase = start_phase(distribution) if distribution is not None else 0
        return _Status("up", phase)

    def initial_state(self) -> _BCState:
        literal_values = tuple(False for _ in self.literals)
        state = _BCState(literal_values, False, False, _Status("up", 0))
        distribution = self._current_ttf(state)
        phase = start_phase(distribution) if distribution is not None else 0
        return self._normalize(
            _BCState(literal_values, False, False, _Status("up", phase))
        )

    # ------------------------------------------------------------------ #
    # transition relation
    # ------------------------------------------------------------------ #
    def input_target(self, state: _BCState, signal: str) -> _BCState:
        """State reached after receiving ``signal`` (may equal ``state``)."""
        literal_values = list(state.literal_values)
        active = state.active
        status = state.status

        if signal in self.watch_effects:
            sets, clears = self.watch_effects[signal]
            for index in sets:
                literal_values[index] = True
            for index in clears:
                literal_values[index] = False
        elif self.spare_capable and signal == signals.activate_signal(self.component.name):
            active = True
        elif self.spare_capable and signal == signals.deactivate_signal(self.component.name):
            active = False
        elif self.repairable and signal == signals.repaired_signal(self.component.name):
            if status.kind == "down":
                intermediate = _BCState(
                    tuple(literal_values), active, state.announced_inaccessible, status
                )
                if self._df_active(intermediate):
                    # Fig. 3: a repair finishing while the dependency source is
                    # still down does not lead back to an operational state.
                    status = _Status("pending_fail", "df")
                else:
                    status = _Status("pending_up")
        new_state = _BCState(
            tuple(literal_values), active, state.announced_inaccessible, status
        )
        return self._normalize(new_state)

    def output_transitions(self, state: _BCState) -> list[tuple[str, _BCState]]:
        """Urgent output transitions enabled in ``state``."""
        name = self.component.name
        transitions: list[tuple[str, _BCState]] = []
        if state.status.kind == "pending_fail":
            tag = str(state.status.detail)
            target = _BCState(state.literal_values, state.active, False, _Status("down", tag))
            transitions.append((signals.failed_signal(name, tag), target))
            return transitions
        if state.status.kind == "pending_up":
            target = _BCState(state.literal_values, state.active, False, _Status("up", 0))
            target = _BCState(
                state.literal_values, state.active, False, self._fresh_up_status(target)
            )
            transitions.append((signals.up_signal(name), self._normalize(target)))
            return transitions
        if state.status.kind == "up" and self.announces_inaccessibility:
            inaccessible = self._is_inaccessible(state)
            if inaccessible and not state.announced_inaccessible:
                target = _BCState(state.literal_values, state.active, True, state.status)
                transitions.append((signals.failed_signal(name, "inacc"), target))
            elif not inaccessible and state.announced_inaccessible:
                target = _BCState(state.literal_values, state.active, False, state.status)
                transitions.append((signals.up_signal(name), target))
        return transitions

    def markovian_transitions(self, state: _BCState) -> list[tuple[float, _BCState]]:
        """Exponential failure-progress transitions enabled in ``state``."""
        if state.status.kind != "up":
            return []
        distribution = self._current_ttf(state)
        if distribution is None:
            return []
        phase = int(state.status.detail or 0)
        if phase >= distribution.num_phases:
            phase = start_phase(distribution)
        transitions: list[tuple[float, _BCState]] = []
        for source, rate, target in distribution.transitions:
            if source != phase:
                continue
            transitions.append(
                (
                    rate,
                    _BCState(
                        state.literal_values,
                        state.active,
                        state.announced_inaccessible,
                        _Status("up", target),
                    ),
                )
            )
        for completion_phase, rate in distribution.completions:
            if completion_phase != phase:
                continue
            for mode_index, probability in enumerate(
                self.component.failure_mode_probabilities
            ):
                if probability <= 0:
                    continue
                transitions.append(
                    (
                        rate * probability,
                        _BCState(
                            state.literal_values,
                            state.active,
                            state.announced_inaccessible,
                            _Status("pending_fail", f"m{mode_index + 1}"),
                        ),
                    )
                )
        return transitions

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self) -> IOIMC:
        """Explore the reachable states and produce the component's I/O-IMC."""
        signature = self.signature()
        builder = IOIMCBuilder(self.component.name, signature)
        initial = self.initial_state()
        builder.state(initial.name(), initial=True)
        seen = {initial}
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            source = state.name()
            for signal in sorted(signature.inputs):
                target = self.input_target(state, signal)
                if target != state:
                    builder.interactive(source, signal, target.name())
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
            for action, target in self.output_transitions(state):
                builder.interactive(source, action, target.name())
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
            for rate, target in self.markovian_transitions(state):
                builder.markovian(source, rate, target.name())
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return builder.build()


def build_component_ioimc(component: BasicComponent, model: ArcadeModel) -> IOIMC:
    """Translate one basic component into its I/O-IMC (Figures 2-5)."""
    return ComponentTranslator(component, model).build()


__all__ = ["ComponentTranslator", "build_component_ioimc", "evaluate_expression", "start_phase"]
