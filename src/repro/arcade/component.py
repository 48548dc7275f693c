"""Basic components (Section 3.1 of the paper).

A basic component (BC) models one physical or logical part of the system.
Defining a BC takes two steps: (1) its operational modes (groups of mutually
exclusive modes, whose cross product forms the component's operational
states), and (2) its failure model (how it moves from an operational state to
a failed state and back).  A component can fail

* *inherently*, after a phase-type distributed delay, possibly in one of
  several failure modes chosen with fixed probabilities (Fig. 4), and
* *destructively*, when its ``DESTRUCTIVE FDEP`` expression becomes true
  (Fig. 3, lower part).

Repair timing lives in the repair units; the component itself only reacts to
the ``repaired`` signal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..distributions import PhaseType
from ..errors import ModelError
from .expressions import Expression
from .operational_modes import OMGroupKind, OperationalModeGroup


@dataclass(frozen=True)
class BasicComponent:
    """Declarative description of one basic component.

    Parameters
    ----------
    name:
        Unique component name.
    time_to_failures:
        Time-to-failure distribution per operational state, in the cross
        product order of the operational-mode groups (itertools.product of
        the groups' mode lists).  ``None`` entries mean "cannot fail in this
        operational state" (used for the *off* mode).  Supplying a single
        distribution broadcasts it to every operational state.
    operational_modes:
        The component's operational-mode groups (possibly empty).
    failure_mode_probabilities:
        Probability of each inherent failure mode (must sum to one).  The
        default is a single failure mode.
    time_to_repairs:
        Time-to-repair distribution per inherent failure mode.  These are
        used by the component's repair unit.
    time_to_repair_df:
        Time-to-repair distribution for a failure caused by the destructive
        functional dependency.
    destructive_fdep:
        Expression whose truth destroys the component (Fig. 3).
    inaccessible_means_down:
        Whether the environment treats inaccessibility as a failure
        (``INACCESSIBLE MEANS DOWN`` in the syntax).
    """

    name: str
    time_to_failures: tuple[PhaseType | None, ...]
    operational_modes: tuple[OperationalModeGroup, ...] = ()
    failure_mode_probabilities: tuple[float, ...] = (1.0,)
    time_to_repairs: tuple[PhaseType, ...] = ()
    time_to_repair_df: PhaseType | None = None
    destructive_fdep: Expression | None = None
    inaccessible_means_down: bool = True

    def __init__(
        self,
        name: str,
        time_to_failures: PhaseType | None | Sequence[PhaseType | None],
        *,
        operational_modes: Sequence[OperationalModeGroup] = (),
        failure_mode_probabilities: Sequence[float] = (1.0,),
        time_to_repairs: PhaseType | Sequence[PhaseType] = (),
        time_to_repair_df: PhaseType | None = None,
        destructive_fdep: Expression | None = None,
        inaccessible_means_down: bool = True,
    ) -> None:
        if not name:
            raise ModelError("a component needs a non-empty name")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "operational_modes", tuple(operational_modes))
        if isinstance(time_to_failures, PhaseType) or time_to_failures is None:
            ttf: tuple[PhaseType | None, ...] = (time_to_failures,)
        else:
            ttf = tuple(time_to_failures)
        object.__setattr__(self, "time_to_failures", ttf)
        object.__setattr__(
            self, "failure_mode_probabilities", tuple(float(p) for p in failure_mode_probabilities)
        )
        if isinstance(time_to_repairs, PhaseType):
            ttr: tuple[PhaseType, ...] = (time_to_repairs,)
        else:
            ttr = tuple(time_to_repairs)
        object.__setattr__(self, "time_to_repairs", ttr)
        object.__setattr__(self, "time_to_repair_df", time_to_repair_df)
        object.__setattr__(self, "destructive_fdep", destructive_fdep)
        object.__setattr__(self, "inaccessible_means_down", bool(inaccessible_means_down))
        self._validate()

    # ------------------------------------------------------------------ #
    # validation and derived structure
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        probabilities = self.failure_mode_probabilities
        if not probabilities or any(p < 0 for p in probabilities):
            raise ModelError(f"{self.name}: failure mode probabilities must be non-negative")
        if abs(sum(probabilities) - 1.0) > 1e-9:
            raise ModelError(f"{self.name}: failure mode probabilities must sum to one")
        if self.time_to_repairs and len(self.time_to_repairs) not in (1, self.num_failure_modes):
            raise ModelError(
                f"{self.name}: need one time-to-repair per failure mode "
                f"({self.num_failure_modes}), got {len(self.time_to_repairs)}"
            )
        expected_states = self.num_operational_states
        if len(self.time_to_failures) not in (1, expected_states):
            raise ModelError(
                f"{self.name}: need one time-to-failure per operational state "
                f"({expected_states}), got {len(self.time_to_failures)}"
            )
        seen_kinds = set()
        for group in self.operational_modes:
            if group.kind in seen_kinds:
                raise ModelError(f"{self.name}: duplicate operational-mode group {group.kind.value}")
            seen_kinds.add(group.kind)
        for distribution in self.time_to_failures:
            if distribution is not None:
                _require_deterministic_start(self.name, distribution)
        for distribution in self.time_to_repairs:
            _require_deterministic_start(self.name, distribution)
        if self.time_to_repair_df is not None:
            _require_deterministic_start(self.name, self.time_to_repair_df)

    @property
    def num_failure_modes(self) -> int:
        """Number of inherent failure modes."""
        return len(self.failure_mode_probabilities)

    @property
    def num_operational_states(self) -> int:
        """Size of the cross product of the operational-mode groups."""
        size = 1
        for group in self.operational_modes:
            size *= group.num_modes
        return size

    def operational_states(self) -> list[tuple[str, ...]]:
        """All operational states (tuples of one mode per group, product order)."""
        if not self.operational_modes:
            return [()]
        return [
            combination
            for combination in itertools.product(*(group.modes for group in self.operational_modes))
        ]

    def time_to_failure_of(self, operational_state_index: int) -> PhaseType | None:
        """TTF distribution of the operational state with the given index."""
        if len(self.time_to_failures) == 1:
            return self.time_to_failures[0]
        return self.time_to_failures[operational_state_index]

    def time_to_repair_of(self, failure_mode_index: int) -> PhaseType | None:
        """TTR distribution of the inherent failure mode with the given index."""
        if not self.time_to_repairs:
            return None
        if len(self.time_to_repairs) == 1:
            return self.time_to_repairs[0]
        return self.time_to_repairs[failure_mode_index]

    def group_of_kind(self, kind: OMGroupKind) -> OperationalModeGroup | None:
        """The group of the given kind, if the component has one."""
        for group in self.operational_modes:
            if group.kind is kind:
                return group
        return None

    @property
    def is_spare_capable(self) -> bool:
        """Whether the component has an active/inactive group (can act as a spare)."""
        return self.group_of_kind(OMGroupKind.ACTIVE_INACTIVE) is not None

    def failure_mode_tags(self) -> list[str]:
        """The mode tags used in failure signals: ``m1``, ``m2``, ... ``df``, ``inacc``."""
        tags = [f"m{index + 1}" for index in range(self.num_failure_modes)]
        if self.destructive_fdep is not None:
            tags.append("df")
        accessibility = self.group_of_kind(OMGroupKind.ACCESSIBLE_INACCESSIBLE)
        if accessibility is not None and self.inaccessible_means_down:
            tags.append("inacc")
        return tags

    def dependencies(self) -> set[str]:
        """Components whose failures this component reacts to (mode switches and FDEP)."""
        referenced: set[str] = set()
        for group in self.operational_modes:
            for trigger in group.triggers:
                referenced |= trigger.references()
        if self.destructive_fdep is not None:
            referenced |= self.destructive_fdep.references()
        return referenced


def _require_deterministic_start(component: str, distribution: PhaseType) -> None:
    """The I/O-IMC embedding needs a single starting phase (see DESIGN.md)."""
    starting_phases = [p for p in distribution.initial if p > 0]
    if len(starting_phases) != 1:
        raise ModelError(
            f"{component}: phase-type distributions embedded in a component must "
            "start deterministically in a single phase (exponential and Erlang do); "
            f"got initial distribution {distribution.initial}"
        )


__all__ = ["BasicComponent"]
