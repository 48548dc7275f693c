"""High-level dependability measures on labelled CTMCs.

These helpers wrap the numerical routines of ``steady_state``, ``transient``
and ``absorbing`` with the vocabulary used in the paper's case studies:
steady-state (un)availability, point availability, (un)reliability and mean
time to failure.  The convention throughout the library is that system
failure states carry the atomic proposition ``"down"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .absorbing import mean_time_to_failure, reliability, unreliability
from .ctmc import CTMC
from .steady_state import steady_state_distribution
from .transient import transient_distribution

#: Atomic proposition marking system-failure states.
DOWN_LABEL = "down"


@dataclass(frozen=True)
class DependabilityMeasures:
    """A bundle of the standard measures for one model/time horizon."""

    availability: float
    unavailability: float
    reliability: float | None
    unreliability: float | None
    mean_time_to_failure: float
    time_horizon: float | None


def steady_state_availability(ctmc: CTMC, *, down_label: str = DOWN_LABEL) -> float:
    """Long-run fraction of time the system is operational."""
    return 1.0 - steady_state_unavailability(ctmc, down_label=down_label)


def steady_state_unavailability(ctmc: CTMC, *, down_label: str = DOWN_LABEL) -> float:
    """Long-run fraction of time the system is failed."""
    distribution = steady_state_distribution(ctmc)
    down_states = ctmc.states_with_label(down_label)
    return float(distribution[down_states].sum()) if down_states else 0.0


def point_availability(
    ctmc: CTMC, time: float, *, down_label: str = DOWN_LABEL
) -> float:
    """Probability that the system is operational at the time instant ``time``."""
    distribution = transient_distribution(ctmc, time)
    down_states = ctmc.states_with_label(down_label)
    down_probability = float(distribution[down_states].sum()) if down_states else 0.0
    return 1.0 - down_probability


def interval_unavailability(
    ctmc: CTMC,
    time: float,
    *,
    down_label: str = DOWN_LABEL,
    resolution: int = 200,
) -> float:
    """Average unavailability over ``[0, time]`` (trapezoidal integration)."""
    if time <= 0:
        return 1.0 - point_availability(ctmc, 0.0, down_label=down_label)
    times = np.linspace(0.0, time, resolution)
    values = [1.0 - point_availability(ctmc, float(t), down_label=down_label) for t in times]
    return float(np.trapezoid(values, times) / time)


def evaluate(
    ctmc: CTMC, *, time: float | None = None, down_label: str = DOWN_LABEL
) -> DependabilityMeasures:
    """Compute the full bundle of measures (reliability only if ``time`` given)."""
    availability = steady_state_availability(ctmc, down_label=down_label)
    if time is not None:
        unrel = unreliability(ctmc, time, down_label=down_label)
        rel = 1.0 - unrel
    else:
        unrel = None
        rel = None
    return DependabilityMeasures(
        availability=availability,
        unavailability=1.0 - availability,
        reliability=rel,
        unreliability=unrel,
        mean_time_to_failure=mean_time_to_failure(ctmc, down_label=down_label),
        time_horizon=time,
    )


__all__ = [
    "DOWN_LABEL",
    "DependabilityMeasures",
    "evaluate",
    "interval_unavailability",
    "point_availability",
    "reliability",
    "steady_state_availability",
    "steady_state_unavailability",
    "unreliability",
]
