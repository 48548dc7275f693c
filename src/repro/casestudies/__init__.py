"""The paper's case studies (Section 5) and parametric model generators."""

from . import dds, rcs, workloads
from .dds import (
    DDSParameters,
    build_dds_evaluator,
    build_dds_model,
    build_dds_modular_evaluator,
    dds_sweep_factory,
)
from .rcs import (
    RCSParameters,
    build_heat_exchange_evaluator,
    build_pump_evaluator,
    build_rcs_model,
    build_rcs_modular_evaluator,
    rcs_sweep_factory,
)
from .workloads import (
    fdep_chain_model,
    redundant_array_model,
    series_of_parallel_groups,
    series_of_parallel_model,
)

__all__ = [
    "DDSParameters",
    "RCSParameters",
    "build_dds_evaluator",
    "build_dds_model",
    "build_dds_modular_evaluator",
    "build_heat_exchange_evaluator",
    "build_pump_evaluator",
    "build_rcs_model",
    "build_rcs_modular_evaluator",
    "dds",
    "dds_sweep_factory",
    "fdep_chain_model",
    "rcs",
    "rcs_sweep_factory",
    "redundant_array_model",
    "series_of_parallel_groups",
    "series_of_parallel_model",
    "workloads",
]
