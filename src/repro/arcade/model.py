"""The Arcade system model: components, units and the failure criterion.

An :class:`ArcadeModel` bundles the building blocks of Section 3 of the
paper — basic components, repair units and spare management units — together
with the ``SYSTEM DOWN`` fault-tree expression of Section 3.4.  The model is
purely declarative; its semantics (one I/O-IMC per building block) is
produced by :mod:`repro.arcade.semantics` and evaluated by
:mod:`repro.composer` / :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import ModelError
from .component import BasicComponent
from .expressions import Expression, Literal
from .operational_modes import OMGroupKind
from .repair_unit import RepairUnit
from .spare_unit import SpareManagementUnit


@dataclass
class ArcadeModel:
    """A complete Arcade system description."""

    name: str
    components: dict[str, BasicComponent] = field(default_factory=dict)
    repair_units: dict[str, RepairUnit] = field(default_factory=dict)
    spare_units: dict[str, SpareManagementUnit] = field(default_factory=dict)
    system_down: Expression | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def add_component(self, component: BasicComponent) -> BasicComponent:
        """Register a basic component (names must be unique)."""
        self._check_fresh_name(component.name)
        self.components[component.name] = component
        return component

    def add_components(self, components: Iterable[BasicComponent]) -> None:
        """Register several basic components."""
        for component in components:
            self.add_component(component)

    def add_repair_unit(self, unit: RepairUnit) -> RepairUnit:
        """Register a repair unit."""
        self._check_fresh_name(unit.name)
        self.repair_units[unit.name] = unit
        return unit

    def add_spare_unit(self, unit: SpareManagementUnit) -> SpareManagementUnit:
        """Register a spare management unit."""
        self._check_fresh_name(unit.name)
        self.spare_units[unit.name] = unit
        return unit

    def set_system_down(self, expression: Expression) -> None:
        """Define the ``SYSTEM DOWN`` failure criterion."""
        self.system_down = expression

    def _check_fresh_name(self, name: str) -> None:
        if (
            name in self.components
            or name in self.repair_units
            or name in self.spare_units
        ):
            raise ModelError(f"{self.name}: the name {name!r} is already in use")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def component(self, name: str) -> BasicComponent:
        """Look up a component by name."""
        try:
            return self.components[name]
        except KeyError:
            raise ModelError(f"{self.name}: unknown component {name!r}") from None

    def repair_unit_of(self, component: str) -> RepairUnit | None:
        """The repair unit responsible for ``component`` (or ``None``)."""
        for unit in self.repair_units.values():
            if component in unit.components:
                return unit
        return None

    def spare_unit_of(self, component: str) -> SpareManagementUnit | None:
        """The SMU controlling ``component`` as one of its spares (or ``None``)."""
        for unit in self.spare_units.values():
            if component in unit.spares:
                return unit
        return None

    def is_repairable(self, component: str) -> bool:
        """Whether some repair unit covers ``component``."""
        return self.repair_unit_of(component) is not None

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def without_repair(self) -> "ArcadeModel":
        """Copy of the model with every repair unit removed.

        The paper's reliability figures for the distributed database system
        follow the definition of [19]: the probability of no system failure
        within the mission time *assuming that no component is ever
        repaired*.  Dropping the repair units yields exactly that model.
        """
        clone = ArcadeModel(name=f"{self.name}_no_repair")
        clone.components = dict(self.components)
        clone.spare_units = dict(self.spare_units)
        clone.system_down = self.system_down
        return clone

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the model for the structural rules stated in the paper."""
        if not self.components:
            raise ModelError(f"{self.name}: the model has no components")
        if self.system_down is None:
            raise ModelError(f"{self.name}: no SYSTEM DOWN criterion was given")

        covered: dict[str, str] = {}
        for unit in self.repair_units.values():
            for component in unit.components:
                if component not in self.components:
                    raise ModelError(
                        f"{self.name}: repair unit {unit.name} repairs unknown component {component!r}"
                    )
                if component in covered:
                    raise ModelError(
                        f"{self.name}: component {component!r} is covered by two repair units "
                        f"({covered[component]} and {unit.name}); the paper allows at most one"
                    )
                covered[component] = unit.name
                bc = self.components[component]
                if not bc.time_to_repairs:
                    raise ModelError(
                        f"{self.name}: component {component!r} is repairable but has no "
                        "TIME-TO-REPAIRS distributions"
                    )
                if bc.destructive_fdep is not None and bc.time_to_repair_df is None:
                    raise ModelError(
                        f"{self.name}: component {component!r} has a destructive functional "
                        "dependency but no repair distribution for it"
                    )

        spare_owner: dict[str, str] = {}
        for unit in self.spare_units.values():
            for component in unit.components:
                if component not in self.components:
                    raise ModelError(
                        f"{self.name}: SMU {unit.name} references unknown component {component!r}"
                    )
            for spare in unit.spares:
                if spare in spare_owner:
                    raise ModelError(
                        f"{self.name}: component {spare!r} is a spare of two SMUs "
                        f"({spare_owner[spare]} and {unit.name})"
                    )
                spare_owner[spare] = unit.name
                if not self.components[spare].is_spare_capable:
                    raise ModelError(
                        f"{self.name}: spare {spare!r} of SMU {unit.name} has no "
                        "active/inactive operational-mode group"
                    )
        for name, component in self.components.items():
            if component.is_spare_capable and name not in spare_owner:
                raise ModelError(
                    f"{self.name}: component {name!r} has an active/inactive group "
                    "but no SMU manages it"
                )

        self._validate_expression(self.system_down, "SYSTEM DOWN")
        for name, component in self.components.items():
            for group in component.operational_modes:
                for trigger in group.triggers:
                    self._validate_expression(trigger, f"{name} {group.kind.value} trigger")
            if component.destructive_fdep is not None:
                self._validate_expression(component.destructive_fdep, f"{name} DESTRUCTIVE FDEP")
            for referenced in component.dependencies():
                if referenced == name:
                    raise ModelError(
                        f"{self.name}: component {name!r} depends on its own failure"
                    )

    def _validate_expression(self, expression: Expression, where: str) -> None:
        for literal in expression.atoms():
            if literal.component not in self.components:
                raise ModelError(
                    f"{self.name}: {where} references unknown component {literal.component!r}"
                )
            if literal.mode is not None:
                component = self.components[literal.component]
                if literal.mode not in component.failure_mode_tags():
                    raise ModelError(
                        f"{self.name}: {where} references failure mode "
                        f"{literal.mode!r} of {literal.component!r}, which only has "
                        f"{component.failure_mode_tags()}"
                    )

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, int]:
        """Building-block counts."""
        return {
            "components": len(self.components),
            "repair_units": len(self.repair_units),
            "spare_units": len(self.spare_units),
        }


__all__ = ["ArcadeModel"]
