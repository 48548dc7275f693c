"""Naming conventions for the signals exchanged between building blocks.

Every interaction in an Arcade model happens through input/output actions
(Section 3 of the paper).  This module centralises the naming scheme so that
basic components, repair units, spare management units and fault-tree gates
agree on the action names they synchronise over:

* ``<component>.failed.<tag>`` — the component announces a failure; the tag
  is ``m1``, ``m2``, ... for inherent failure modes, ``df`` for a destructive
  functional dependency and ``inacc`` for inaccessibility announced as a
  failure;
* ``<component>.up``            — the component announces its restoration;
* ``<component>.repaired``      — the component's repair unit finished a repair;
* ``<component>.activate`` / ``<component>.deactivate`` — sent by a spare
  management unit to a spare;
* ``<gate>.failed`` / ``<gate>.up`` — a fault-tree gate announces that its
  condition became true / false.
"""

from __future__ import annotations

from typing import Sequence

from ..component import BasicComponent
from ..expressions import Literal


def failed_signal(component: str, tag: str) -> str:
    """Failure signal of a component for a specific failure-mode tag."""
    return f"{component}.failed.{tag}"


def up_signal(component: str) -> str:
    """Restoration signal of a component or gate."""
    return f"{component}.up"


def repaired_signal(component: str) -> str:
    """Repair-completed signal emitted by the component's repair unit."""
    return f"{component}.repaired"


def activate_signal(component: str) -> str:
    """Activation command sent to a spare by its spare management unit."""
    return f"{component}.activate"


def deactivate_signal(component: str) -> str:
    """Deactivation command sent to a spare by its spare management unit."""
    return f"{component}.deactivate"


def gate_failed_signal(gate: str) -> str:
    """Failure signal of a fault-tree gate (or dependency monitor)."""
    return f"{gate}.failed"


def component_failure_signals(component: BasicComponent) -> list[str]:
    """All failure signals the component may emit."""
    return [failed_signal(component.name, tag) for tag in component.failure_mode_tags()]


def literal_set_signals(literal: Literal, failure_signals: Sequence[str]) -> list[str]:
    """Signals whose arrival makes the failure literal true, given every
    failure signal of the literal's component."""
    if literal.mode is None:
        return list(failure_signals)
    return [failed_signal(literal.component, literal.mode)]


def literal_clear_signal(literal: Literal) -> str:
    """Signal whose arrival makes the failure literal false again."""
    return up_signal(literal.component)


__all__ = [
    "activate_signal",
    "component_failure_signals",
    "deactivate_signal",
    "failed_signal",
    "gate_failed_signal",
    "literal_clear_signal",
    "literal_set_signals",
    "repaired_signal",
    "up_signal",
]
