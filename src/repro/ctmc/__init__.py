"""Labelled CTMCs and their numerical analysis.

The package provides the third stage of the Arcade evaluation pipeline
(Section 4 of the paper): the conversion of the composed I/O-IMC into a
labelled CTMC (:mod:`~repro.ctmc.extraction`) and the standard solution
techniques for availability and reliability
(:mod:`~repro.ctmc.steady_state`, :mod:`~repro.ctmc.transient`,
:mod:`~repro.ctmc.absorbing`), from which :mod:`~repro.ctmc.measures`
computes every measure the paper reports.
"""

from .absorbing import make_absorbing, mean_time_to_failure, reliability, unreliability
from .ctmc import CTMC
from .extraction import extract_ctmc
from .lumping import CTMCLumpingResult, lump, lumping_partition
from .measures import (
    DOWN_LABEL,
    DependabilityMeasures,
    evaluate,
    interval_unavailability,
    point_availability,
    steady_state_availability,
    steady_state_unavailability,
)
from .steady_state import (
    absorption_probabilities,
    bottom_strongly_connected_components,
    stationary_of_irreducible,
    steady_state_distribution,
)
from .transient import poisson_window, transient_distribution

__all__ = [
    "CTMC",
    "CTMCLumpingResult",
    "DOWN_LABEL",
    "DependabilityMeasures",
    "absorption_probabilities",
    "bottom_strongly_connected_components",
    "evaluate",
    "extract_ctmc",
    "interval_unavailability",
    "lump",
    "lumping_partition",
    "make_absorbing",
    "mean_time_to_failure",
    "point_availability",
    "poisson_window",
    "reliability",
    "stationary_of_irreducible",
    "steady_state_availability",
    "steady_state_distribution",
    "steady_state_unavailability",
    "transient_distribution",
    "unreliability",
]
