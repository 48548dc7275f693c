"""The benchmark's four fixed workloads and the outputs pinned for each.

Every workload is a paper model evaluated serially (``jobs=1``) with the
quotient cache on.  ``build(seed)`` makes the inputs (the evaluator, or the
sweep factory and config); ``measure(built)`` computes the workload's
measures and is the timed region; ``observe(built)`` reads the state-space
and cache counters afterwards, outside the timing.  ``pinned`` holds the
exact outputs every evaluation must reproduce, bit for bit.

The models are fixed, so every seed gives the same measures.  The seed is
recorded with each run and is the sweep's root seed, which seeds only the
per-row simulation streams (unused by the compositional backend).

This module imports no part of ``repro`` at import time, so the set-up probe
(a fresh interpreter that imports it) charges the library import to the
workload's build.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

#: Mission time of the DDS reliability measure: five weeks in hours.
DDS_MISSION_HOURS = 5.0 * 7.0 * 24.0
#: RCS mission times: the paper's 50 h plus longer horizons that give the
#: transient solver real work (one year is 8,760 h).
RCS_MISSION_HOURS = (50.0, 500.0, 5000.0, 8760.0)
#: The sweep model: the DDS family pinned to 2 clusters x 3 disks.
SWEEP_STRUCTURE = {"num_clusters": 2.0, "disks_per_cluster": 3.0}
#: Points per swept rate axis (a 3 x 3 x 3 geometric grid).
SWEEP_POINTS_PER_AXIS = 3
SWEEP_AXES = ("processor_failure_rate", "disk_failure_rate", "repair_rate")

DDS_PINNED = {
    "availability": 0.9999965021714378,
    "reliability_5wk": 0.40201757107868796,
    "ctmc_states": 2100,
}
RCS_PINNED = {
    "unavailability": 1.189738108605474e-08,
    "unreliability_50h": 4.382499644480226e-09,
    "unreliability_500h": 5.403952807091513e-08,
    "unreliability_5000h": 5.975321111838268e-07,
    "unreliability_8760h": 1.1206830384666186e-06,
    "pump_ctmc_states": 1164,
}
SWEEP_PINNED = {
    "rows": 34,
    "evaluations": 40,
    "measures_sha256": "b7217040578cfa3e",
}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    build: Callable[[int], Any]
    measure: Callable[[Any], dict]
    observe: Callable[[Any], dict]
    pinned: dict


def check(outputs: dict, pinned: dict) -> list[str]:
    """Every output that differs from its pinned value, as readable lines."""
    return [
        f"{key}: got {outputs.get(key)!r}, pinned {value!r}"
        for key, value in pinned.items()
        if outputs.get(key) != value
    ]


# --------------------------------------------------------------------------- #
# DDS: the paper's distributed database system (6 clusters x 4 disks)
# --------------------------------------------------------------------------- #
def _dds_inputs(reduction: str) -> Callable[[int], dict]:
    def inputs(seed: int) -> dict:
        from repro.casestudies.dds import DDSParameters

        return {
            "model": "dds",
            "parameters": dataclasses.asdict(DDSParameters()),
            "reduction": reduction,
            "order": "hierarchical",
            "cache": "on",
            "jobs": 1,
            "seed": seed,
            "mission_hours": [DDS_MISSION_HOURS],
        }

    return inputs


def _dds_build(reduction: str) -> Callable[[int], Any]:
    def build(seed: int):
        from repro.casestudies.dds import build_dds_evaluator

        return build_dds_evaluator(
            reduction=reduction, order="hierarchical", cache="on", jobs=1
        )

    return build


def _dds_measure(evaluator) -> dict:
    return {
        "availability": evaluator.availability(),
        "reliability_5wk": evaluator.reliability(DDS_MISSION_HOURS),
        "ctmc_states": evaluator.ctmc.num_states,
    }


def _dds_observe(evaluator) -> dict:
    pipelines = (evaluator.composed, evaluator.composed_without_repair)
    return {
        "peak_states": max(p.statistics.largest_intermediate_states for p in pipelines),
        "cache": evaluator.cache.summary(),
    }


# --------------------------------------------------------------------------- #
# RCS: the modular reactor cooling system (Section 5.2)
# --------------------------------------------------------------------------- #
def _rcs_inputs(seed: int) -> dict:
    from repro.casestudies.rcs import RCSParameters

    return {
        "model": "rcs_modular",
        "parameters": dataclasses.asdict(RCSParameters()),
        "reduction": "strong",
        "order": "hierarchical",
        "cache": "on",
        "jobs": 1,
        "seed": seed,
        "mission_hours": list(RCS_MISSION_HOURS),
        "unreliability": "repair-aware first passage",
    }


def _rcs_build(seed: int):
    from repro.casestudies.rcs import build_rcs_modular_evaluator

    return build_rcs_modular_evaluator(
        reduction="strong", order="hierarchical", cache="on", jobs=1
    )


def _rcs_measure(evaluator) -> dict:
    outputs = {"unavailability": evaluator.unavailability()}
    for hours in RCS_MISSION_HOURS:
        outputs[f"unreliability_{hours:g}h"] = evaluator.unreliability(hours)
    outputs["pump_ctmc_states"] = evaluator.evaluators["pumps"].ctmc.num_states
    return outputs


def _rcs_observe(evaluator) -> dict:
    return {
        "peak_states": max(
            sub.composed.statistics.largest_intermediate_states
            for sub in evaluator.evaluators.values()
        ),
        "cache": evaluator.cache.summary(),
    }


# --------------------------------------------------------------------------- #
# DDS sweep: run_sweep over a 2-cluster x 3-disk DDS
# --------------------------------------------------------------------------- #
def _geometric(center: float) -> list[float]:
    middle = (SWEEP_POINTS_PER_AXIS - 1) / 2.0
    return [center * 2.0 ** (i - middle) for i in range(SWEEP_POINTS_PER_AXIS)]


@dataclass
class SweepRun:
    factory: Any
    config: Any
    result: Any = None


def _sweep_build(seed: int) -> SweepRun:
    from repro.casestudies.dds import dds_sweep_factory
    from repro.sweep import SweepConfig

    factory = dds_sweep_factory()
    base = {**factory.base, **SWEEP_STRUCTURE}
    factory = dataclasses.replace(factory, base=base)
    config = SweepConfig(
        grid={axis: _geometric(base[axis]) for axis in SWEEP_AXES},
        reduction="strong",
        cache="on",
        jobs=1,
        root_seed=seed,
        mission_time=DDS_MISSION_HOURS,
        importance=True,
    )
    return SweepRun(factory, config)


def _sweep_inputs(seed: int) -> dict:
    run = _sweep_build(seed)
    return {
        "model": "dds_sweep",
        "parameters": dict(run.factory.base),
        "grid": {axis: list(values) for axis, values in run.config.grid.items()},
        "sensitivity_axes": list(run.factory.rate_axes),
        "fd_step": run.config.fd_step,
        "importance_components": list(run.factory.importance_components),
        "reduction": run.config.reduction,
        "order": "hierarchical",
        "cache": "on",
        "jobs": run.config.jobs,
        "seed": seed,
        "mission_hours": [DDS_MISSION_HOURS],
    }


def measures_digest(points) -> str:
    """Short SHA-256 of the availability and unreliability columns' bytes."""
    payload = points["availability"].tobytes() + points["unreliability"].tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _sweep_measure(run: SweepRun) -> dict:
    # Called through the module so a traced run sees its wrapped run_sweep.
    from repro.sweep import driver

    run.result = driver.run_sweep(run.factory, run.config)
    points = run.result.points
    return {
        "rows": len(points),
        "evaluations": run.result.manifest["totals"]["evaluations"],
        "measures_sha256": measures_digest(points),
    }


def _sweep_observe(run: SweepRun) -> dict:
    cache = run.result.manifest["cache"]
    return {
        "peak_states": int(run.result.points["largest_intermediate_states"].max()),
        "cache": {key: cache[key] for key in ("hits", "misses", "hit_rate")},
    }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "dds_strong",
            _dds_inputs("strong"),
            _dds_build("strong"),
            _dds_measure,
            _dds_observe,
            DDS_PINNED,
        ),
        Workload(
            "dds_branching",
            _dds_inputs("branching"),
            _dds_build("branching"),
            _dds_measure,
            _dds_observe,
            DDS_PINNED,
        ),
        Workload(
            "rcs_mission",
            _rcs_inputs,
            _rcs_build,
            _rcs_measure,
            _rcs_observe,
            RCS_PINNED,
        ),
        Workload(
            "dds_sweep",
            _sweep_inputs,
            _sweep_build,
            _sweep_measure,
            _sweep_observe,
            SWEEP_PINNED,
        ),
    )
}
