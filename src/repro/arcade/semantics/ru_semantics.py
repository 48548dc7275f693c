"""I/O-IMC semantics of repair units (Figures 6 and 7 of the paper).

A repair unit listens to the failure signals of the components it is
responsible for, selects the next component according to its strategy
(dedicated, FCFS, FCFS with non-preemptive priorities, FCFS with preemptive
priorities), lets the phase-type repair time elapse and finally emits the
component's ``repaired`` signal.

The repair unit — not the component — owns all repair-time distributions
("the RU is also aware of all rates related to repair times", Section 3.2).
A component with several failure modes is repaired with the distribution of
the mode it announced; destructive-functional-dependency failures use the
dedicated ``df`` repair distribution (Fig. 6b).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...distributions import PhaseType
from ...errors import ModelError
from ...ioimc import IOIMC, IOIMCBuilder, Signature
from ..model import ArcadeModel
from ..repair_unit import RepairStrategy, RepairUnit
from . import signals
from .bc_semantics import start_phase


@dataclass(frozen=True)
class _Job:
    """One repair job: a component that failed in a particular mode."""

    component: str
    tag: str

    def __str__(self) -> str:
        return f"{self.component}.{self.tag}"


@dataclass(frozen=True)
class _RUState:
    """One state of the repair unit's I/O-IMC.

    ``queue`` holds the pending jobs; its interpretation depends on the
    strategy (arrival order for FCFS, an unordered pool for the priority
    strategies).  ``phase`` is the phase of the job currently being repaired
    and ``finished`` marks a repair whose ``repaired`` signal is about to be
    emitted.
    """

    queue: tuple[_Job, ...]
    phase: int
    finished: _Job | None

    def name(self) -> str:
        jobs = ",".join(str(job) for job in self.queue) or "idle"
        suffix = f" done:{self.finished}" if self.finished is not None else f" ph{self.phase}"
        return f"[{jobs}{suffix}]"


class RepairUnitTranslator:
    """Builds the I/O-IMC of one repair unit within a model context.

    Everything :meth:`build` reads of the model is resolved here, so
    :meth:`key` names the block exactly: equal keys build equal blocks.
    """

    def __init__(self, unit: RepairUnit, model: ArcadeModel):
        self.unit = unit
        self.jobs = self._collect_jobs(model)
        self.repair_distributions = {
            job: self._repair_distribution(job, model) for job in self.jobs
        }

    def key(self) -> tuple:
        """Hashable identity of the block: the fields :meth:`build` reads."""
        return (self.unit, tuple(self.repair_distributions.items()))

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #
    def _collect_jobs(self, model: ArcadeModel) -> list[_Job]:
        jobs: list[_Job] = []
        for name in self.unit.components:
            component = model.component(name)
            for index in range(component.num_failure_modes):
                jobs.append(_Job(name, f"m{index + 1}"))
            if component.destructive_fdep is not None:
                jobs.append(_Job(name, "df"))
        return jobs

    def _repair_distribution(self, job: _Job, model: ArcadeModel) -> PhaseType:
        component = model.component(job.component)
        if job.tag == "df":
            distribution = component.time_to_repair_df
        else:
            distribution = component.time_to_repair_of(int(job.tag[1:]) - 1)
        if distribution is None:
            raise ModelError(
                f"repair unit {self.unit.name}: component {job.component} has no "
                f"repair distribution for failure mode {job.tag}"
            )
        return distribution

    def signature(self) -> Signature:
        inputs = {signals.failed_signal(job.component, job.tag) for job in self.jobs}
        outputs = {signals.repaired_signal(name) for name in self.unit.components}
        return Signature.create(inputs=inputs, outputs=outputs)

    # ------------------------------------------------------------------ #
    # strategy helpers
    # ------------------------------------------------------------------ #
    def _priority_key(self, job: _Job) -> tuple[int, int]:
        """Sort key: higher priority first, ties broken by declaration order."""
        return (
            -self.unit.priority_of(job.component),
            self.unit.components.index(job.component),
        )

    def _current_job(self, queue: tuple[_Job, ...]) -> _Job:
        """The job being repaired in a non-empty queue."""
        strategy = self.unit.strategy
        if strategy in (RepairStrategy.DEDICATED, RepairStrategy.FCFS):
            return queue[0]
        if strategy is RepairStrategy.PRIORITY_NON_PREEMPTIVE:
            # The head was chosen when the previous repair finished and is not
            # preempted; it is stored first by construction.
            return queue[0]
        # Preemptive priorities: always repair the best-ranked failed job.
        return min(queue, key=self._priority_key)

    def _start_repair_phase(self, job: _Job) -> int:
        return start_phase(self.repair_distributions[job])

    def _enqueue(self, state: _RUState, job: _Job) -> _RUState:
        """State after receiving a failure announcement for ``job``."""
        if any(existing.component == job.component for existing in state.queue) or (
            state.finished is not None and state.finished.component == job.component
        ):
            # The component is already waiting for (or undergoing) repair;
            # this cannot happen in a well-formed model but must not break
            # input-enabledness.
            return state
        queue = state.queue + (job,)
        if state.finished is not None:
            return _RUState(queue, 0, state.finished)
        if not state.queue:
            return _RUState(queue, self._start_repair_phase(job), None)
        if self.unit.strategy is RepairStrategy.PRIORITY_PREEMPTIVE:
            current_before = self._current_job(state.queue)
            current_after = self._current_job(queue)
            if current_after != current_before:
                # The new arrival preempts the running repair; its phase-type
                # clock starts from scratch (preempt-restart, immaterial for
                # exponential repair times).
                return _RUState(queue, self._start_repair_phase(current_after), None)
        return _RUState(queue, state.phase, None)

    def _after_completion(self, state: _RUState) -> _RUState:
        """State after emitting the ``repaired`` signal of ``state.finished``."""
        assert state.finished is not None
        remaining = state.queue
        if not remaining:
            return _RUState((), 0, None)
        if self.unit.strategy in (RepairStrategy.DEDICATED, RepairStrategy.FCFS):
            ordered = remaining
        elif self.unit.strategy is RepairStrategy.PRIORITY_NON_PREEMPTIVE:
            best = min(remaining, key=self._priority_key)
            ordered = (best,) + tuple(job for job in remaining if job != best)
        else:
            ordered = remaining
        current = self._current_job(ordered)
        return _RUState(ordered, self._start_repair_phase(current), None)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self) -> IOIMC:
        signature = self.signature()
        builder = IOIMCBuilder(self.unit.name, signature)
        initial = _RUState((), 0, None)
        builder.state(initial.name(), initial=True)
        seen = {initial}
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            source = state.name()

            def visit(target: _RUState) -> None:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)

            # Failure announcements may arrive in any state.
            for job in self.jobs:
                target = self._enqueue(state, job)
                if target != state:
                    builder.interactive(
                        source, signals.failed_signal(job.component, job.tag), target.name()
                    )
                    visit(target)

            if state.finished is not None:
                # Urgent announcement of the finished repair.
                target = self._after_completion(state)
                builder.interactive(
                    source, signals.repaired_signal(state.finished.component), target.name()
                )
                visit(target)
            elif state.queue:
                # Repair in progress: phase-type transitions of the current job.
                current = self._current_job(state.queue)
                distribution = self.repair_distributions[current]
                phase = state.phase
                for phase_source, rate, phase_target in distribution.transitions:
                    if phase_source != phase:
                        continue
                    target = _RUState(state.queue, phase_target, None)
                    builder.markovian(source, rate, target.name())
                    visit(target)
                for completion_phase, rate in distribution.completions:
                    if completion_phase != phase:
                        continue
                    remaining = tuple(job for job in state.queue if job != current)
                    target = _RUState(remaining, 0, current)
                    builder.markovian(source, rate, target.name())
                    visit(target)
        return builder.build()


def build_repair_unit_ioimc(unit: RepairUnit, model: ArcadeModel) -> IOIMC:
    """Translate one repair unit into its I/O-IMC (Figures 6 and 7)."""
    return RepairUnitTranslator(unit, model).build()


__all__ = ["RepairUnitTranslator", "build_repair_unit_ioimc"]
