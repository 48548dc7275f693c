"""Operational-mode groups of a basic component (Section 3.1.1 of the paper).

A group of operational modes is a set of mutually exclusive modes; the
operational states of a component are the cross product of its groups.  The
paper predefines four kinds of groups, all of which are supported here:

* ``active/inactive`` — controlled by a spare management unit through the
  ``activate``/``deactivate`` signals;
* ``on/off`` — driven by a failure expression (e.g. "the power supply is
  down"); while *off* the component cannot fail;
* ``accessible/inaccessible`` — a non-destructive functional dependency; the
  component keeps operating but may be announced as failed to the
  environment;
* ``normal/degraded`` (possibly with several degraded levels) — load-sharing
  style rate changes driven by failure expressions.

A group lists its modes in order; the **first mode is the initial one**.  For
expression-driven groups each non-initial mode carries the expression that
activates it (the highest-indexed true expression wins, so multi-level
degradation is expressed naturally).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from ..errors import ModelError
from .expressions import Expression


class OMGroupKind(enum.Enum):
    """The predefined kinds of operational-mode groups."""

    ACTIVE_INACTIVE = "active_inactive"
    ON_OFF = "on_off"
    ACCESSIBLE_INACCESSIBLE = "accessible_inaccessible"
    NORMAL_DEGRADED = "normal_degraded"


@dataclass(frozen=True)
class OperationalModeGroup:
    """One group of mutually exclusive operational modes."""

    kind: OMGroupKind
    modes: tuple[str, ...]
    triggers: tuple[Expression, ...] = ()

    def __post_init__(self) -> None:
        if len(self.modes) < 2:
            raise ModelError("an operational-mode group needs at least two modes")
        if self.kind is OMGroupKind.ACTIVE_INACTIVE:
            if self.triggers:
                raise ModelError(
                    "the active/inactive group is controlled by a spare management "
                    "unit, not by failure expressions"
                )
            if len(self.modes) != 2:
                raise ModelError("the active/inactive group has exactly two modes")
        else:
            if len(self.triggers) != len(self.modes) - 1:
                raise ModelError(
                    f"group {self.kind.value}: need one trigger expression per "
                    f"non-initial mode ({len(self.modes) - 1}), got {len(self.triggers)}"
                )

    @property
    def initial_mode(self) -> str:
        """The mode the component starts in (first listed)."""
        return self.modes[0]

    @property
    def num_modes(self) -> int:
        return len(self.modes)


def spare_group(inactive: str = "inactive", active: str = "active") -> OperationalModeGroup:
    """The SMU-controlled ``(inactive, active)`` group of a spare component."""
    return OperationalModeGroup(OMGroupKind.ACTIVE_INACTIVE, (inactive, active))


def on_off_group(trigger: Expression) -> OperationalModeGroup:
    """``(on, off)`` group: the component is off while ``trigger`` holds."""
    return OperationalModeGroup(OMGroupKind.ON_OFF, ("on", "off"), (trigger,))


def accessibility_group(trigger: Expression) -> OperationalModeGroup:
    """``(accessible, inaccessible)`` group driven by ``trigger``."""
    return OperationalModeGroup(
        OMGroupKind.ACCESSIBLE_INACCESSIBLE, ("accessible", "inaccessible"), (trigger,)
    )


def degradation_group(
    triggers: Expression | Sequence[Expression],
    *,
    mode_names: Sequence[str] | None = None,
) -> OperationalModeGroup:
    """``(normal, degraded, ...)`` group driven by one expression per level."""
    if isinstance(triggers, Expression):
        triggers = [triggers]
    triggers = list(triggers)
    if mode_names is None:
        if len(triggers) == 1:
            mode_names = ["normal", "degraded"]
        else:
            mode_names = ["normal"] + [f"degraded{i + 1}" for i in range(len(triggers))]
    return OperationalModeGroup(
        OMGroupKind.NORMAL_DEGRADED, tuple(mode_names), tuple(triggers)
    )


__all__ = [
    "OMGroupKind",
    "OperationalModeGroup",
    "accessibility_group",
    "degradation_group",
    "on_off_group",
    "spare_group",
]
