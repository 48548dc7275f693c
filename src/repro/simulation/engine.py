"""Discrete-event Monte-Carlo simulation of Arcade models (scalar reference).

The simulator provides an *independent* implementation of the Arcade
semantics: instead of translating to I/O-IMCs and solving a CTMC, it executes
the model directly (components draw phase-type failure times, repair units
serve queues according to their strategy, spare management units activate
spares, the fault tree is re-evaluated after every event).  Agreement between
the simulator and the analytical pipeline is used throughout the test suite
as a cross-check of the semantics, and the simulator also covers models whose
state spaces are too large to build explicitly.

This scalar, one-trajectory-at-a-time engine is the **differential
reference** for the vectorised engine of
:mod:`repro.simulation.vectorised`: running a trajectory here with the
per-trajectory stream of :func:`repro.simulation.rng.trajectory_generator`
must produce bit-identical events to the corresponding row of a matched-mode
vectorised batch.  All randomness flows through an explicit
:class:`numpy.random.Generator` built by :func:`repro.simulation.rng.
make_generator` (or passed per run) — never through module-level
``numpy.random.*`` calls.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..arcade.expressions import And, Expression, KOutOfN, Literal, Or
from ..arcade.model import ArcadeModel
from ..arcade.operational_modes import OMGroupKind
from ..arcade.repair_unit import RepairStrategy, RepairUnit
from ..errors import ModelError
from .rng import make_generator


@dataclass
class _ComponentState:
    """Run-time state of one component during a simulation."""

    down: bool = False
    failure_mode: str | None = None
    active: bool = False
    failure_event: int | None = None  # sequence number of the scheduled failure
    failure_phase: int = 0  # reached phase of the time-to-failure distribution
    waiting_for_repair: bool = False


@dataclass
class _RepairUnitState:
    """Run-time state of one repair unit during a simulation."""

    queue: list[str] = field(default_factory=list)
    repairing: str | None = None
    completion_event: int | None = None


class ArcadeSimulator:
    """Executes an Arcade model as a discrete-event simulation."""

    def __init__(self, model: ArcadeModel, *, seed: int = 0) -> None:
        model.validate()
        self.model = model
        self.rng = make_generator(seed)
        assert model.system_down is not None
        self.system_down_expression: Expression = model.system_down

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        horizon: float,
        *,
        rng: np.random.Generator | None = None,
        log: list | None = None,
    ) -> "SimulationTrace":
        """Simulate one trajectory up to ``horizon`` and record system failures.

        ``rng`` overrides the engine stream for this trajectory (used by the
        differential suite to pin one :func:`~repro.simulation.rng.
        trajectory_generator` stream per trajectory).  ``log``, when given,
        receives one ``(time, kind, name)`` tuple per executed event —
        ``kind`` is ``"failure"``, ``"phase"`` or ``"repair"`` and ``name``
        the component (or repair unit) the event belongs to.
        """
        rng = self.rng if rng is None else rng
        state, units, events, counter = self._initial_state(rng)
        trace = SimulationTrace(horizon=horizon)
        now = 0.0
        system_down = self._system_down(state)
        last_change = 0.0
        while events:
            time, _, kind, payload = heapq.heappop(events)
            if time > horizon:
                break
            event_id = payload.get("event_id")
            if kind in ("failure", "phase"):
                component = payload["component"]
                if state[component].failure_event != event_id or state[component].down:
                    continue  # superseded (e.g. mode switch rescheduled the failure)
            if kind == "repair":
                unit_name = payload["unit"]
                if units[unit_name].completion_event != event_id:
                    continue
            now = time
            trace.events += 1
            if log is not None:
                log.append(
                    (now, kind, payload["unit" if kind == "repair" else "component"])
                )
            if kind == "failure":
                self._handle_failure(
                    payload["component"], payload["mode"], state, units, events, counter, now, rng
                )
            elif kind == "phase":
                # The failure distribution advanced one phase; the reached
                # phase is remembered so a later operational-mode switch
                # resumes from it instead of restarting the distribution.
                component = payload["component"]
                state[component].failure_phase = payload["phase"]
                self._schedule_failure(
                    component, state, events, counter, now, rng, preserve_phase=True
                )
            elif kind == "repair":
                self._handle_repair(payload["unit"], state, units, events, counter, now, rng)
            else:  # pragma: no cover - defensive
                raise ModelError(f"unknown event kind {kind!r}")
            new_down = self._system_down(state)
            if new_down != system_down:
                trace.record(now - last_change, system_down)
                if new_down and not system_down:
                    trace.failures += 1
                    if trace.first_failure_time is None:
                        trace.first_failure_time = now
                system_down = new_down
                last_change = now
        trace.record(horizon - last_change, system_down)
        return trace

    def estimate(
        self, horizon: float, runs: int
    ) -> "SimulationEstimate":
        """Estimate unavailability and unreliability over ``runs`` trajectories."""
        unavailability = 0.0
        failures_by_horizon = 0
        down_at_horizon = 0
        total_events = 0
        for _ in range(runs):
            trace = self.run(horizon)
            unavailability += trace.down_time / horizon
            total_events += trace.events
            if trace.first_failure_time is not None:
                failures_by_horizon += 1
            if trace.down_at_end:
                down_at_horizon += 1
        return SimulationEstimate(
            runs=runs,
            horizon=horizon,
            mean_unavailability=unavailability / runs,
            unreliability=failures_by_horizon / runs,
            point_unavailability=down_at_horizon / runs,
            total_events=total_events,
        )

    # ------------------------------------------------------------------ #
    # initialisation
    # ------------------------------------------------------------------ #
    def _initial_state(self, rng: np.random.Generator):
        state: dict[str, _ComponentState] = {}
        units: dict[str, _RepairUnitState] = {}
        events: list[tuple[float, int, str, dict]] = []
        counter = itertools.count()
        for name, component in self.model.components.items():
            spare_unit = self.model.spare_unit_of(name)
            state[name] = _ComponentState(active=spare_unit is None)
        for name in self.model.repair_units:
            units[name] = _RepairUnitState()
        for name in self.model.components:
            self._schedule_failure(name, state, events, counter, 0.0, rng)
        return state, units, events, counter

    # ------------------------------------------------------------------ #
    # component behaviour
    # ------------------------------------------------------------------ #
    def _operational_state_index(self, name: str, state: dict[str, _ComponentState]) -> int:
        component = self.model.component(name)
        index = 0
        for group in component.operational_modes:
            if group.kind is OMGroupKind.ACTIVE_INACTIVE:
                mode_index = 1 if state[name].active else 0
            else:
                mode_index = 0
                for level, trigger in enumerate(group.triggers, start=1):
                    if self._expression_holds(trigger, state):
                        mode_index = level
            index = index * group.num_modes + mode_index
        return index

    def _schedule_failure(
        self,
        name: str,
        state: dict[str, _ComponentState],
        events: list,
        counter,
        now: float,
        rng: np.random.Generator,
        *,
        preserve_phase: bool = False,
    ) -> None:
        """(Re)schedule the failure progress of an operational component.

        The time-to-failure distribution is executed *phase by phase* (one
        exponential jump of its underlying absorbing CTMC per event), with
        the reached phase recorded on the component state.  An
        operational-mode switch therefore preserves the already-reached
        phase (``preserve_phase=True``) and merely re-draws the remaining
        time of the current phase under the new mode's rates — exact by the
        memorylessness of the per-phase exponential holding times, and
        exactly the phase-preserving semantics of the analytical
        translation (:mod:`repro.arcade.semantics.bc_semantics`).  Like the
        translation, a preserved phase outside the new distribution's range
        restarts the distribution.
        """
        component = self.model.component(name)
        component_state = state[name]
        if component_state.down:
            return
        distribution = component.time_to_failure_of(
            self._operational_state_index(name, state)
        )
        if distribution is None:
            component_state.failure_event = None
            return
        if preserve_phase and component_state.failure_phase < distribution.num_phases:
            phase = component_state.failure_phase
        else:
            phase = int(
                rng.choice(
                    distribution.num_phases, p=np.asarray(distribution.initial)
                )
            )
        component_state.failure_phase = phase
        outgoing: list[tuple[float, int | None]] = [
            (rate, target)
            for source, rate, target in distribution.transitions
            if source == phase
        ] + [
            (rate, None)
            for completion_phase, rate in distribution.completions
            if completion_phase == phase
        ]
        total = sum(rate for rate, _ in outgoing)
        if total <= 0:  # a dead phase: the component can never fail from here
            component_state.failure_event = None
            return
        delay = float(rng.exponential(1.0 / total))
        choice = rng.uniform(0.0, total)
        cumulative = 0.0
        target = outgoing[-1][1]
        for rate, candidate in outgoing:
            cumulative += rate
            if choice <= cumulative:
                target = candidate
                break
        event_id = next(counter)
        component_state.failure_event = event_id
        if target is None:
            mode_index = int(
                rng.choice(
                    component.num_failure_modes,
                    p=np.asarray(component.failure_mode_probabilities),
                )
            )
            heapq.heappush(
                events,
                (
                    now + delay,
                    event_id,
                    "failure",
                    {
                        "component": name,
                        "mode": f"m{mode_index + 1}",
                        "event_id": event_id,
                    },
                ),
            )
        else:
            heapq.heappush(
                events,
                (
                    now + delay,
                    event_id,
                    "phase",
                    {"component": name, "phase": target, "event_id": event_id},
                ),
            )

    def _handle_failure(self, name, mode, state, units, events, counter, now, rng) -> None:
        component_state = state[name]
        component_state.down = True
        component_state.failure_mode = mode
        component_state.failure_event = None
        self._notify_repair_unit(name, mode, state, units, events, counter, now, rng)
        self._propagate(name, state, units, events, counter, now, rng)

    def _handle_repair(self, unit_name, state, units, events, counter, now, rng) -> None:
        unit_state = units[unit_name]
        repaired = unit_state.repairing
        unit_state.repairing = None
        unit_state.completion_event = None
        if repaired is not None:
            component_state = state[repaired]
            if self._df_holds(repaired, state):
                # Fig. 3: repairing a component whose dependency source is
                # still down immediately destroys it again.
                component_state.failure_mode = "df"
                self._notify_repair_unit(repaired, "df", state, units, events, counter, now, rng)
            else:
                component_state.down = False
                component_state.failure_mode = None
                component_state.waiting_for_repair = False
                self._schedule_failure(repaired, state, events, counter, now, rng)
                self._propagate(repaired, state, units, events, counter, now, rng)
        self._start_next_repair(unit_name, state, units, events, counter, now, rng)

    def _df_holds(self, name: str, state: dict[str, _ComponentState]) -> bool:
        component = self.model.component(name)
        if component.destructive_fdep is None:
            return False
        return self._expression_holds(component.destructive_fdep, state)

    def _propagate(self, changed, state, units, events, counter, now, rng) -> None:
        """Re-evaluate dependencies after a component changed its up/down status."""
        for name, component in self.model.components.items():
            if name == changed:
                continue
            if component.destructive_fdep is not None and not state[name].down:
                if self._expression_holds(component.destructive_fdep, state):
                    self._handle_failure(name, "df", state, units, events, counter, now, rng)
                    continue
            if any(
                group.kind is not OMGroupKind.ACTIVE_INACTIVE and group.triggers
                for group in component.operational_modes
            ) and not state[name].down:
                # A mode switch may change the failure rates: re-draw the
                # remaining time of the *current* phase under the new mode,
                # keeping the reached phase (see _schedule_failure).
                self._schedule_failure(
                    name, state, events, counter, now, rng, preserve_phase=True
                )
        # Spare management.
        for unit in self.model.spare_units.values():
            primary_down = state[unit.primary].down
            active_spares = [spare for spare in unit.spares if state[spare].active]
            if primary_down:
                if not any(not state[s].down and state[s].active for s in unit.spares):
                    for spare in unit.spares:
                        if not state[spare].down:
                            if not state[spare].active:
                                state[spare].active = True
                                self._schedule_failure(
                                    spare, state, events, counter, now, rng,
                                    preserve_phase=True,
                                )
                            break
            else:
                for spare in active_spares:
                    state[spare].active = False
                    if not state[spare].down:
                        self._schedule_failure(
                            spare, state, events, counter, now, rng, preserve_phase=True
                        )

    # ------------------------------------------------------------------ #
    # repair units
    # ------------------------------------------------------------------ #
    def _notify_repair_unit(self, name, mode, state, units, events, counter, now, rng) -> None:
        unit = self.model.repair_unit_of(name)
        if unit is None:
            return
        state[name].waiting_for_repair = True
        unit_state = units[unit.name]
        if name not in unit_state.queue and unit_state.repairing != name:
            unit_state.queue.append(name)
        if unit_state.repairing is None:
            self._start_next_repair(unit.name, state, units, events, counter, now, rng)
        elif unit.strategy is RepairStrategy.PRIORITY_PREEMPTIVE:
            current = unit_state.repairing
            if unit.priority_of(name) > unit.priority_of(current):
                unit_state.queue.append(current)
                unit_state.repairing = None
                unit_state.completion_event = None
                unit_state.queue.remove(name)
                self._begin_repair(unit, name, state, units, events, counter, now, rng)

    def _start_next_repair(self, unit_name, state, units, events, counter, now, rng) -> None:
        unit = self.model.repair_units[unit_name]
        unit_state = units[unit_name]
        if unit_state.repairing is not None or not unit_state.queue:
            return
        if unit.strategy in (RepairStrategy.DEDICATED, RepairStrategy.FCFS):
            chosen = unit_state.queue.pop(0)
        else:
            chosen = max(unit_state.queue, key=lambda c: (unit.priority_of(c), -unit_state.queue.index(c)))
            unit_state.queue.remove(chosen)
        self._begin_repair(unit, chosen, state, units, events, counter, now, rng)

    def _begin_repair(self, unit: RepairUnit, name, state, units, events, counter, now, rng) -> None:
        component = self.model.component(name)
        mode = state[name].failure_mode or "m1"
        if mode == "df":
            distribution = component.time_to_repair_df
        else:
            distribution = component.time_to_repair_of(int(mode[1:]) - 1)
        if distribution is None:
            raise ModelError(f"component {name} has no repair distribution for mode {mode}")
        delay = distribution.sample(rng)
        event_id = next(counter)
        unit_state = units[unit.name]
        unit_state.repairing = name
        unit_state.completion_event = event_id
        heapq.heappush(
            events,
            (now + delay, event_id, "repair", {"unit": unit.name, "event_id": event_id}),
        )

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def _expression_holds(self, expression: Expression, state) -> bool:
        if isinstance(expression, Literal):
            component_state = state[expression.component]
            if not component_state.down:
                return False
            if expression.mode is None:
                return True
            return component_state.failure_mode == expression.mode
        if isinstance(expression, And):
            return all(self._expression_holds(child, state) for child in expression.children)
        if isinstance(expression, Or):
            return any(self._expression_holds(child, state) for child in expression.children)
        if isinstance(expression, KOutOfN):
            count = sum(
                1 for child in expression.children if self._expression_holds(child, state)
            )
            return count >= expression.k
        raise ModelError(f"unknown expression node {expression!r}")

    def _system_down(self, state) -> bool:
        return self._expression_holds(self.system_down_expression, state)


@dataclass
class SimulationTrace:
    """Outcome of a single simulated trajectory."""

    horizon: float
    down_time: float = 0.0
    up_time: float = 0.0
    failures: int = 0
    first_failure_time: float | None = None
    down_at_end: bool = False
    events: int = 0

    def record(self, duration: float, was_down: bool) -> None:
        duration = max(duration, 0.0)
        if was_down:
            self.down_time += duration
        else:
            self.up_time += duration
        self.down_at_end = was_down


@dataclass(frozen=True)
class SimulationEstimate:
    """Aggregate estimates over many trajectories."""

    runs: int
    horizon: float
    mean_unavailability: float
    unreliability: float
    point_unavailability: float
    total_events: int = 0

    @property
    def reliability(self) -> float:
        return 1.0 - self.unreliability


__all__ = ["ArcadeSimulator", "SimulationEstimate", "SimulationTrace"]
