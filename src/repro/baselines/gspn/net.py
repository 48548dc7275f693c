"""A small generalised-stochastic-Petri-net (GSPN) substrate.

The distributed database system of Section 5.1 was originally evaluated in
[19] with composed SAN-based reward models solved by UltraSAN.  Neither
UltraSAN nor Möbius is openly available, so the comparison column of Table 1
is reproduced with this GSPN engine: places hold tokens, timed transitions
fire after exponential delays (possibly with marking-dependent rates),
immediate transitions fire in zero time according to weights, and the
reachability graph is converted into a labelled CTMC by eliminating the
vanishing markings.

The engine is deliberately general purpose — it is exercised by its own unit
tests on textbook nets — and the DDS model built on top of it lives in
:mod:`repro.baselines.gspn.dds_net`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ...errors import AnalysisError, ModelError

#: A marking maps place names to token counts (absent places hold zero).
Marking = tuple[int, ...]

#: Rate functions receive the marking as a dict and return the firing rate.
RateFunction = Callable[[Mapping[str, int]], float]


@dataclass(frozen=True)
class Place:
    """A place of the net."""

    name: str
    initial_tokens: int = 0


@dataclass(frozen=True)
class Transition:
    """A timed or immediate transition.

    ``rate`` is either a constant or a function of the marking; immediate
    transitions use ``weight`` instead and fire in zero time with priority
    over every timed transition.
    """

    name: str
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    inhibitors: tuple[tuple[str, int], ...] = ()
    rate: float | RateFunction | None = None
    weight: float = 1.0
    immediate: bool = False


class GSPN:
    """A generalised stochastic Petri net."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.places: dict[str, Place] = {}
        self.transitions: list[Transition] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_place(self, name: str, initial_tokens: int = 0) -> Place:
        """Add a place (names must be unique)."""
        if name in self.places:
            raise ModelError(f"{self.name}: duplicate place {name!r}")
        if initial_tokens < 0:
            raise ModelError(f"{self.name}: negative initial marking for {name!r}")
        place = Place(name, initial_tokens)
        self.places[name] = place
        return place

    def add_timed_transition(
        self,
        name: str,
        rate: float | RateFunction,
        inputs: Mapping[str, int],
        outputs: Mapping[str, int],
        inhibitors: Mapping[str, int] | None = None,
    ) -> Transition:
        """Add an exponentially timed transition."""
        transition = Transition(
            name,
            tuple(sorted(inputs.items())),
            tuple(sorted(outputs.items())),
            tuple(sorted((inhibitors or {}).items())),
            rate=rate,
        )
        self._check_transition(transition)
        self.transitions.append(transition)
        return transition

    def add_immediate_transition(
        self,
        name: str,
        inputs: Mapping[str, int],
        outputs: Mapping[str, int],
        inhibitors: Mapping[str, int] | None = None,
        weight: float = 1.0,
    ) -> Transition:
        """Add an immediate transition (fires in zero time, weighted choice)."""
        if weight <= 0:
            raise ModelError(f"{self.name}: immediate transition weight must be positive")
        transition = Transition(
            name,
            tuple(sorted(inputs.items())),
            tuple(sorted(outputs.items())),
            tuple(sorted((inhibitors or {}).items())),
            weight=weight,
            immediate=True,
        )
        self._check_transition(transition)
        self.transitions.append(transition)
        return transition

    def _check_transition(self, transition: Transition) -> None:
        for place, multiplicity in (
            *transition.inputs,
            *transition.outputs,
            *transition.inhibitors,
        ):
            if place not in self.places:
                raise ModelError(
                    f"{self.name}: transition {transition.name!r} references unknown "
                    f"place {place!r}"
                )
            if multiplicity <= 0:
                raise ModelError(
                    f"{self.name}: arc multiplicities must be positive "
                    f"({transition.name!r} / {place!r})"
                )

    # ------------------------------------------------------------------ #
    # behaviour
    # ------------------------------------------------------------------ #
    def place_order(self) -> list[str]:
        """Canonical place ordering used to encode markings as tuples."""
        return list(self.places)

    def initial_marking(self) -> Marking:
        """The initial marking as a tuple following :meth:`place_order`."""
        return tuple(self.places[name].initial_tokens for name in self.place_order())

    def marking_as_dict(self, marking: Marking) -> dict[str, int]:
        """Expose a marking as a name -> tokens mapping (for rate functions)."""
        return dict(zip(self.place_order(), marking))

    def is_enabled(self, transition: Transition, marking: Marking) -> bool:
        """Whether ``transition`` may fire in ``marking``."""
        index = {name: position for position, name in enumerate(self.place_order())}
        for place, multiplicity in transition.inputs:
            if marking[index[place]] < multiplicity:
                return False
        for place, multiplicity in transition.inhibitors:
            if marking[index[place]] >= multiplicity:
                return False
        return True

    def fire(self, transition: Transition, marking: Marking) -> Marking:
        """The marking reached by firing ``transition`` in ``marking``."""
        index = {name: position for position, name in enumerate(self.place_order())}
        tokens = list(marking)
        for place, multiplicity in transition.inputs:
            tokens[index[place]] -= multiplicity
            if tokens[index[place]] < 0:
                raise AnalysisError(
                    f"{self.name}: transition {transition.name!r} fired while disabled"
                )
        for place, multiplicity in transition.outputs:
            tokens[index[place]] += multiplicity
        return tuple(tokens)

    def rate_of(self, transition: Transition, marking: Marking) -> float:
        """Firing rate of a timed transition in ``marking``."""
        if transition.immediate or transition.rate is None:
            raise AnalysisError(f"{transition.name!r} is not a timed transition")
        if callable(transition.rate):
            value = float(transition.rate(self.marking_as_dict(marking)))
        else:
            value = float(transition.rate)
        if value < 0:
            raise AnalysisError(
                f"{self.name}: transition {transition.name!r} produced a negative rate"
            )
        return value


__all__ = ["GSPN", "Marking", "Place", "RateFunction", "Transition"]
