"""The fleet-scale sweep driver: one model family, thousands of variants.

The paper's point is that compositional aggregation makes dependability
evaluation cheap enough to ask *many* what-if questions of one architecture.
:func:`run_sweep` is that workload: a parameterised model factory, a
parameter space (grid axes + Latin-hypercube samples over rate priors), and
one evaluation per point — all flowing through a **single shared**
:class:`~repro.composer.QuotientCache`, so the replicated subtrees of the
family are composed once across the whole sweep, not once per point.

Per point the driver

* derives an independent simulation seed from the root seed via
  ``SeedSequence`` spawning (:func:`repro.simulation.rng.point_seed`) —
  never reuses one stream across points, which would correlate estimates
  and corrupt the finite-difference sensitivities;
* routes to the compositional or the simulation backend
  (``backend="auto"`` picks per point from the flat state-space bound);
* records measures, state-space sizes, per-point cache hit/miss deltas and
  wall-clock into the columnar results store of :mod:`repro.sweep.store`.

On top of the raw points it computes central-difference rate sensitivities,
Birnbaum / improvement-potential component importance via conditioned
evaluations, and an unavailability *distribution* from the LHS samples —
see :mod:`repro.sweep.sensitivity` for the definitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis import ArcadeEvaluator
from ..arcade.model import ArcadeModel
from ..composer import QuotientCache, require_serial, resolve_cache
from ..errors import ArcadeError, SweepError
from ..resilience.checkpoint import SweepCheckpoint
from ..simulation.rng import point_seed
from ..telemetry.trace import incr, observe
from ..telemetry.trace import span as telemetry_span
from .sensitivity import (
    ImportanceRow,
    SensitivityRow,
    central_difference,
    conditioned_model,
)
from .space import Prior, check_axis_names, grid_points, latin_hypercube, resolve_prior
from .store import RESERVED_POINT_FIELDS, SweepResult


@dataclass(frozen=True)
class SweepFactory:
    """A parameterised model family, sweepable over named axes.

    ``build(values)`` maps a full axis-value assignment to an
    :class:`~repro.arcade.model.ArcadeModel`; ``base`` holds the default
    value of every axis (unswept axes keep it).  ``order`` optionally maps
    ``(translated, values)`` to a composition order (or the ``"auto"``
    policy string) for the compositional backend.  ``rate_axes`` names the
    axes eligible for finite-difference sensitivities, and
    ``importance_components`` the components conditioned for the
    Birnbaum / improvement-potential measures.
    """

    name: str
    build: Callable[[Mapping[str, float]], ArcadeModel]
    base: Mapping[str, float]
    order: Callable[..., object] | None = None
    rate_axes: tuple[str, ...] = ()
    importance_components: tuple[str, ...] = ()


@dataclass
class SweepConfig:
    """Everything :func:`run_sweep` needs besides the factory."""

    #: Grid axes: explicit value list per axis, swept as a full product.
    grid: Mapping[str, Sequence[float]] = field(default_factory=dict)
    #: Rate priors for uncertainty propagation (axis -> Prior / (low, high)).
    priors: Mapping[str, "Prior | tuple"] = field(default_factory=dict)
    #: Latin-hypercube samples drawn over ``priors`` (0 disables).
    lhs_samples: int = 0
    #: ``"compose"``, ``"simulate"`` or ``"auto"`` (per-point choice by
    #: :data:`~repro.analysis.evaluator.AUTO_STATE_LIMIT`).
    backend: str = "compose"
    reduction: str = "strong"
    #: Shared across every evaluation: ``"on"`` (fresh shared instance),
    #: ``"off"``/None, or an existing :class:`QuotientCache`.
    cache: "QuotientCache | str | None" = "on"
    #: Must be 1 (see :func:`~repro.composer.require_serial`); kept because
    #: the benchmark harness in ``perfbench/`` passes and reads it.
    jobs: int = 1
    #: Root of the per-point ``SeedSequence`` spawning discipline.
    root_seed: int = 0
    #: When set, unreliability over this mission time is evaluated per point.
    mission_time: float | None = None
    #: Axes to differentiate; default: the factory's ``rate_axes``.
    sensitivity_axes: Sequence[str] | None = None
    #: Relative step h of the central difference.
    fd_step: float = 0.05
    #: Compute component importance at the base point.
    importance: bool = True
    sim_horizon: float = 10_000.0
    sim_replications: int = 256
    sim_rel_error: float | None = None
    #: Per-point failure isolation: a point whose evaluation raises a
    #: library error becomes an ``status="error"`` row (NaN measures, the
    #: message in the ``error`` column) instead of killing the sweep.
    #: Non-library exceptions and interrupts always propagate.
    isolate_failures: bool = False
    #: Pre-reduction state ceiling per composition step, threaded to the
    #: composer (:class:`~repro.errors.StateBudgetError` on excess — an
    #: error row under ``isolate_failures``).
    state_budget: int | None = None
    #: Base path of the crash-safe checkpoint pair (``None`` disables);
    #: see :class:`~repro.resilience.SweepCheckpoint`.
    checkpoint: "str | None" = None
    #: Write the checkpoint every N completed evaluations (an interrupted
    #: run additionally writes its final state on the way out).
    checkpoint_every: int = 1
    #: Replay a matching checkpoint at ``checkpoint`` before evaluating
    #: anything live; bit-identical to an uninterrupted run (the shared
    #: cache state travels in the checkpoint).
    resume: bool = False

    def __post_init__(self) -> None:
        require_serial(self.jobs)


@dataclass(frozen=True)
class PointResult:
    """One evaluated parameter point (a row of the ``points`` table)."""

    index: int
    kind: str
    values: dict
    seed: int
    backend: str
    availability: float
    unavailability: float
    unreliability: float  # NaN when no mission time was requested
    sim_half_width: float  # NaN for compositional points
    ctmc_states: int
    ctmc_transitions: int
    largest_intermediate_states: int
    cache_hits: int
    cache_misses: int
    seconds: float
    #: ``"ok"`` or ``"error"`` (failure-isolated point).
    status: str = "ok"
    #: The isolating error's message (empty for ``"ok"`` rows).
    error: str = ""


def evaluate_point(
    factory: SweepFactory,
    values: Mapping[str, float],
    config: SweepConfig,
    *,
    seed: int,
    cache: "QuotientCache | None" = None,
    index: int = 0,
    kind: str = "grid",
    model: ArcadeModel | None = None,
) -> PointResult:
    """Evaluate one parameter point (deterministic given its arguments).

    The backend, reduction, mission time, simulation settings and state
    budget come from ``config``; ``cache`` is the resolved shared cache
    (``config.cache`` is not consulted).

    This is the unit the sweep loops over *and* the serial baseline of the
    bit-identity guarantee: running it with ``cache=None`` and the seed the
    sweep recorded for the point reproduces the sweep's numbers exactly
    (cache hits rebase to precisely what a cold pipeline computes, and the
    simulation backend is a pure function of its seed).

    ``model`` overrides the factory build (used for conditioned importance
    evaluations); ``values`` still resolves the composition order.
    """
    full = dict(factory.base)
    full.update(values)
    started = time.perf_counter()
    target = model if model is not None else factory.build(full)
    evaluator = ArcadeEvaluator(
        target,
        reduction=config.reduction,
        cache=cache,
        backend=config.backend,
        sim_seed=seed,
        sim_horizon=config.sim_horizon,
        sim_replications=config.sim_replications,
        sim_rel_error=config.sim_rel_error,
        state_budget=config.state_budget,
    )
    resolved = evaluator.resolved_backend
    if resolved == "compose" and factory.order is not None:
        evaluator.order = factory.order(evaluator.translated, full)
    before = cache.snapshot() if cache is not None else (0, 0, 0, 0.0)
    unavailability = evaluator.unavailability()
    availability = evaluator.availability()
    if resolved == "compose":
        half_width = math.nan
    else:
        # Captured before the mission-time estimate, which would overwrite it.
        interval = evaluator.simulation_interval
        half_width = interval.half_width if interval is not None else math.nan
    mission_time = config.mission_time
    unreliability = (
        evaluator.unreliability(mission_time) if mission_time is not None else math.nan
    )
    after = cache.snapshot() if cache is not None else (0, 0, 0, 0.0)
    if resolved == "compose":
        statistics = evaluator.composed.statistics
        ctmc_states = evaluator.ctmc.num_states
        ctmc_transitions = evaluator.ctmc.num_transitions
        largest = statistics.largest_intermediate_states
    else:
        ctmc_states = ctmc_transitions = largest = 0
    return PointResult(
        index=index,
        kind=kind,
        values=full,
        seed=seed,
        backend=resolved,
        availability=availability,
        unavailability=unavailability,
        unreliability=unreliability,
        sim_half_width=half_width,
        ctmc_states=ctmc_states,
        ctmc_transitions=ctmc_transitions,
        largest_intermediate_states=largest,
        cache_hits=after[0] - before[0],
        cache_misses=after[1] - before[1],
        seconds=time.perf_counter() - started,
    )


def enumerate_points(config: SweepConfig) -> list[tuple[str, dict]]:
    """The ``(kind, axis values)`` sequence of a sweep, in evaluation order.

    Grid points first (odometer order — neighbours differ in one axis, which
    keeps the shared cache warm), then the LHS samples.
    """
    points: list[tuple[str, dict]] = [
        ("grid", values) for values in grid_points(config.grid)
    ]
    if config.lhs_samples:
        points.extend(
            ("lhs", values)
            for values in latin_hypercube(
                config.priors, config.lhs_samples, seed=config.root_seed
            )
        )
    return points


def run_sweep(factory: SweepFactory, config: SweepConfig) -> SweepResult:
    """Evaluate the whole parameter space against one shared cache."""
    with telemetry_span(
        "sweep.run", factory=factory.name, backend=config.backend
    ) as sweep_span:
        result = _run_sweep_impl(factory, config)
        totals = result.manifest["totals"]
        sweep_span.set(
            points=totals["points"],
            evaluations=totals["evaluations"],
            seconds=totals["seconds"],
        )
        return result


def _run_sweep_impl(factory: SweepFactory, config: SweepConfig) -> SweepResult:
    sensitivity_axes = tuple(
        config.sensitivity_axes if config.sensitivity_axes is not None
        else factory.rate_axes
    )
    axes = _swept_axes(config)
    # The points table must carry every axis that ever varies — the
    # finite-difference rows shift sensitivity axes that need not be swept,
    # and the bit-identity check reconstructs points from these columns.
    axes.extend(axis for axis in sensitivity_axes if axis not in axes)
    check_axis_names(axes, RESERVED_POINT_FIELDS)
    for axis in axes:
        if axis not in factory.base:
            raise SweepError(
                f"axis {axis!r} is not a parameter of factory {factory.name!r} "
                f"(known axes: {sorted(factory.base)})"
            )
    specs = enumerate_points(config)
    if not specs:
        raise SweepError("the sweep has no points (empty grid and no LHS samples)")
    cache = resolve_cache(config.cache)
    checkpoint: SweepCheckpoint | None = None
    replayed: list[PointResult] = []
    if config.checkpoint is not None:
        checkpoint = SweepCheckpoint(
            config.checkpoint,
            fingerprint=_config_fingerprint(factory, config, axes, sensitivity_axes),
            axes=axes,
        )
        if config.resume and checkpoint.exists():
            replayed, _ = checkpoint.load(cache)
    elif config.resume:
        raise SweepError("resume=True needs a checkpoint path in the sweep config")
    started = time.perf_counter()
    evaluations = 0
    #: Every row in evaluation order — replayed and live — so a checkpoint
    #: written at any moment records the full deterministic prefix.
    history: list[PointResult] = []

    def evaluate(
        values: Mapping[str, float], kind: str, model: ArcadeModel | None = None
    ) -> PointResult:
        nonlocal evaluations
        index = evaluations
        evaluations += 1
        if index < len(replayed):
            # Resume replay: the recorded row *is* the evaluation (every
            # point is a pure function of its seed and the cache state the
            # checkpoint restored), so nothing runs and no counters move.
            row = replayed[index]
            history.append(row)
            return row
        seed = point_seed(config.root_seed, index)
        with telemetry_span("sweep.point", index=index, kind=kind) as point_span:
            elapsed_from = time.perf_counter()
            try:
                row = evaluate_point(
                    factory, values, config, seed=seed, cache=cache, index=index,
                    kind=kind, model=model,
                )
            except ArcadeError as error:
                if not config.isolate_failures:
                    raise
                # Failure isolation: the point becomes an error row instead
                # of a dead sweep.  Only library errors qualify — a bug
                # (TypeError, ...) or an interrupt still propagates.
                full = dict(factory.base)
                full.update(values)
                row = PointResult(
                    index=index,
                    kind=kind,
                    values=full,
                    seed=seed,
                    backend="none",
                    availability=math.nan,
                    unavailability=math.nan,
                    unreliability=math.nan,
                    sim_half_width=math.nan,
                    ctmc_states=0,
                    ctmc_transitions=0,
                    largest_intermediate_states=0,
                    cache_hits=0,
                    cache_misses=0,
                    seconds=time.perf_counter() - elapsed_from,
                    status="error",
                    error=f"{type(error).__name__}: {error}"[:200],
                )
                incr("resilience.sweep.point_errors")
            point_span.set(
                backend=row.backend,
                cache_hits=row.cache_hits,
                cache_misses=row.cache_misses,
                seconds=row.seconds,
                status=row.status,
            )
            incr("sweep.points")
            observe("sweep.point_seconds", row.seconds)
        history.append(row)
        if checkpoint is not None and len(history) % config.checkpoint_every == 0:
            checkpoint.write(history, cache)
        return row

    try:
        outcome = _sweep_body(factory, config, sensitivity_axes, specs, evaluate)
    except BaseException:
        # Crash-safe exit: persist whatever completed before re-raising, so
        # a resumed run replays it instead of recomputing.  The write is
        # atomic — dying *here* leaves the previous checkpoint intact.
        if checkpoint is not None and history:
            checkpoint.write(history, cache)
        raise
    rows, sensitivities, importance = outcome

    total_seconds = time.perf_counter() - started
    return _assemble_result(
        factory,
        config,
        axes,
        rows,
        sensitivities,
        importance,
        cache,
        total_seconds,
        evaluations,
    )


def _sweep_body(
    factory: SweepFactory,
    config: SweepConfig,
    sensitivity_axes: tuple,
    specs: list,
    evaluate: Callable[..., PointResult],
) -> tuple[list[PointResult], list[SensitivityRow], list[ImportanceRow]]:
    """All evaluations of one sweep, in the deterministic replay order."""
    rows = [evaluate(values, kind) for kind, values in specs]

    # ---------------------------------------------------------------- #
    # derived quantities, all at the factory's base point
    # ---------------------------------------------------------------- #
    base_row: PointResult | None = None
    if sensitivity_axes or (config.importance and factory.importance_components):
        base_row = evaluate({}, "base")
        rows.append(base_row)

    sensitivities: list[SensitivityRow] = []
    for axis in sensitivity_axes:
        value = float(factory.base.get(axis, math.nan))
        if not math.isfinite(value):
            raise SweepError(
                f"sensitivity axis {axis!r} has no base value in factory "
                f"{factory.name!r}"
            )
        step = config.fd_step
        lower = evaluate({axis: value * (1.0 - step)}, "fd")
        upper = evaluate({axis: value * (1.0 + step)}, "fd")
        rows.extend([lower, upper])
        sensitivities.append(
            central_difference(
                axis,
                value,
                lower.unavailability,
                upper.unavailability,
                base_row.unavailability,
                step=step,
            )
        )

    importance: list[ImportanceRow] = []
    if config.importance and factory.importance_components:
        base_model = factory.build(dict(factory.base))
        for component in factory.importance_components:
            conditioned = {}
            for state, failed in (("up", False), ("down", True)):
                clone = conditioned_model(base_model, component, failed=failed)
                if isinstance(clone, bool):
                    # Constant tree: True = always down (availability 0).
                    conditioned[state] = 0.0 if clone else 1.0
                else:
                    conditioned[state] = evaluate(
                        {}, "cond", model=clone
                    ).availability
            importance.append(
                ImportanceRow(
                    component=component,
                    availability_up=conditioned["up"],
                    availability_down=conditioned["down"],
                    birnbaum=conditioned["up"] - conditioned["down"],
                    improvement_potential=conditioned["up"] - base_row.availability,
                )
            )

    return rows, sensitivities, importance


def verify_bit_identical(
    factory: SweepFactory,
    result: SweepResult,
    config: SweepConfig,
    *,
    indices: Sequence[int] | None = None,
) -> dict:
    """Re-evaluate points serially with fresh evaluators and compare bits.

    The acceptance property of the sweep engine: every point served from the
    shared cache (and every simulated point re-fed its recorded seed) must
    be *bit-identical* to a cold evaluation.  Returns a summary dict with
    ``identical`` plus the worst absolute deviation observed (0.0 when
    identical).
    """
    points = result.points
    rows = range(len(points)) if indices is None else indices
    checked = 0
    worst = 0.0
    for row in rows:
        record = points[row]
        if record["kind"] not in ("grid", "lhs", "base", "fd"):
            continue
        if "status" in (points.dtype.names or ()) and str(record["status"]) != "ok":
            continue  # error rows have no measures to reproduce
        values = {axis: float(record[axis]) for axis in result.axes}
        # Re-run on the backend the point actually used (``auto`` resolved).
        point_config = replace(config, backend=str(record["backend"]))
        fresh = evaluate_point(factory, values, point_config, seed=int(record["seed"]))
        checked += 1
        for column, fresh_value in (
            ("unavailability", fresh.unavailability),
            ("availability", fresh.availability),
            ("unreliability", fresh.unreliability),
        ):
            recorded = float(record[column])
            if math.isnan(recorded) and math.isnan(fresh_value):
                continue
            worst = max(worst, abs(recorded - fresh_value))
    return {"checked": checked, "identical": worst == 0.0, "max_abs_diff": worst}


# --------------------------------------------------------------------------- #
# result assembly
# --------------------------------------------------------------------------- #
def _swept_axes(config: SweepConfig) -> list[str]:
    axes = list(config.grid)
    axes.extend(axis for axis in config.priors if axis not in config.grid)
    return axes


_POINT_TAIL_FIELDS = [
    ("availability", "f8"),
    ("unavailability", "f8"),
    ("unreliability", "f8"),
    ("sim_half_width", "f8"),
    ("backend", "U12"),
    ("ctmc_states", "i8"),
    ("ctmc_transitions", "i8"),
    ("largest_intermediate_states", "i8"),
    ("cache_hits", "i8"),
    ("cache_misses", "i8"),
    ("seconds", "f8"),
    ("status", "U8"),
    ("error", "U200"),
]

_SENSITIVITY_FIELDS = [
    ("axis", "U64"),
    ("value", "f8"),
    ("step", "f8"),
    ("unavailability_lower", "f8"),
    ("unavailability_upper", "f8"),
    ("derivative", "f8"),
    ("elasticity", "f8"),
]

_IMPORTANCE_FIELDS = [
    ("component", "U64"),
    ("availability_up", "f8"),
    ("availability_down", "f8"),
    ("birnbaum", "f8"),
    ("improvement_potential", "f8"),
]


def rows_to_table(rows: "Sequence[PointResult]", axes: "Sequence[str]") -> np.ndarray:
    """Pack :class:`PointResult` rows into the structured ``points`` table.

    The same encoding backs the final store and the resume checkpoint, so a
    replayed row round-trips through exactly the representation the store
    compares — the bit-identity contract never straddles two formats.
    """
    dtype = np.dtype(
        [("index", "i8"), ("kind", "U12"), ("seed", "u8")]
        + [(axis, "f8") for axis in axes]
        + _POINT_TAIL_FIELDS
    )
    points = np.zeros(len(rows), dtype=dtype)
    for position, row in enumerate(rows):
        record = points[position]
        record["index"] = row.index
        record["kind"] = row.kind
        record["seed"] = row.seed
        for axis in axes:
            record[axis] = row.values[axis]
        record["availability"] = row.availability
        record["unavailability"] = row.unavailability
        record["unreliability"] = row.unreliability
        record["sim_half_width"] = row.sim_half_width
        record["backend"] = row.backend
        record["ctmc_states"] = row.ctmc_states
        record["ctmc_transitions"] = row.ctmc_transitions
        record["largest_intermediate_states"] = row.largest_intermediate_states
        record["cache_hits"] = row.cache_hits
        record["cache_misses"] = row.cache_misses
        record["seconds"] = row.seconds
        record["status"] = row.status
        record["error"] = row.error
    return points


def rows_from_table(table: np.ndarray, axes: "Sequence[str]") -> list[PointResult]:
    """Decode a ``points`` table back into :class:`PointResult` rows.

    The inverse of :func:`rows_to_table` up to the axis projection: the
    decoded ``values`` carry exactly the axis columns (unswept base
    parameters are reapplied by the factory when a row is re-evaluated, and
    never re-evaluated when a row is replayed).
    """
    rows: list[PointResult] = []
    for record in table:
        rows.append(
            PointResult(
                index=int(record["index"]),
                kind=str(record["kind"]),
                values={axis: float(record[axis]) for axis in axes},
                seed=int(record["seed"]),
                backend=str(record["backend"]),
                availability=float(record["availability"]),
                unavailability=float(record["unavailability"]),
                unreliability=float(record["unreliability"]),
                sim_half_width=float(record["sim_half_width"]),
                ctmc_states=int(record["ctmc_states"]),
                ctmc_transitions=int(record["ctmc_transitions"]),
                largest_intermediate_states=int(
                    record["largest_intermediate_states"]
                ),
                cache_hits=int(record["cache_hits"]),
                cache_misses=int(record["cache_misses"]),
                seconds=float(record["seconds"]),
                status=str(record["status"]),
                error=str(record["error"]),
            )
        )
    return rows


def _sweep_block(factory: SweepFactory, config: SweepConfig) -> dict:
    """The manifest's ``sweep`` block (also the fingerprint's raw material)."""
    return {
        "factory": factory.name,
        "base": {name: float(value) for name, value in factory.base.items()},
        "grid": {
            axis: [float(v) for v in values] for axis, values in config.grid.items()
        },
        "priors": {
            axis: {
                "low": resolve_prior(spec).low,
                "high": resolve_prior(spec).high,
                "log": resolve_prior(spec).log,
            }
            for axis, spec in config.priors.items()
        },
        "lhs_samples": config.lhs_samples,
        "backend": config.backend,
        "reduction": config.reduction,
        "root_seed": config.root_seed,
        "mission_time": config.mission_time,
        "fd_step": config.fd_step,
        "sim_horizon": config.sim_horizon,
        "sim_replications": config.sim_replications,
        "sim_rel_error": config.sim_rel_error,
    }


def _config_fingerprint(
    factory: SweepFactory,
    config: SweepConfig,
    axes: "Sequence[str]",
    sensitivity_axes: "Sequence[str]",
) -> str:
    """Digest of everything that determines the evaluation sequence.

    Anything that changes the sequence or the numbers (space, seeds,
    backend knobs, derived-phase setup) is in.
    """
    block = _sweep_block(factory, config)
    material = {
        "sweep": block,
        "axes": list(axes),
        "sensitivity_axes": list(sensitivity_axes),
        "importance": bool(config.importance),
        "importance_components": list(factory.importance_components),
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _assemble_result(
    factory: SweepFactory,
    config: SweepConfig,
    axes: list[str],
    rows: list[PointResult],
    sensitivities: list[SensitivityRow],
    importance: list[ImportanceRow],
    cache: "QuotientCache | None",
    total_seconds: float,
    evaluations: int,
) -> SweepResult:
    points = rows_to_table(rows, axes)

    sensitivity_table = np.zeros(len(sensitivities), dtype=np.dtype(_SENSITIVITY_FIELDS))
    for position, entry in enumerate(sensitivities):
        record = sensitivity_table[position]
        record["axis"] = entry.axis
        record["value"] = entry.value
        record["step"] = entry.step
        record["unavailability_lower"] = entry.unavailability_lower
        record["unavailability_upper"] = entry.unavailability_upper
        record["derivative"] = entry.derivative
        record["elasticity"] = entry.elasticity

    importance_table = np.zeros(len(importance), dtype=np.dtype(_IMPORTANCE_FIELDS))
    for position, entry in enumerate(importance):
        record = importance_table[position]
        record["component"] = entry.component
        record["availability_up"] = entry.availability_up
        record["availability_down"] = entry.availability_down
        record["birnbaum"] = entry.birnbaum
        record["improvement_potential"] = entry.improvement_potential

    manifest = {
        "sweep": _sweep_block(factory, config),
        "totals": {
            "points": int(np.isin(points["kind"], ("grid", "lhs")).sum()),
            "evaluations": evaluations,
            "errors": int((points["status"] == "error").sum()),
            "seconds": round(total_seconds, 4),
        },
        "cache": cache.summary() if cache is not None else None,
        "distributions": _distributions(points),
    }
    return SweepResult(
        points=points,
        sensitivities=sensitivity_table,
        importance=importance_table,
        manifest=manifest,
    )


def _distributions(points: np.ndarray) -> dict:
    """Distribution summaries of the LHS samples (uncertainty propagation)."""
    lhs = points[(points["kind"] == "lhs") & (points["status"] == "ok")]
    if lhs.size == 0:
        return {}
    quantile_levels = (0.05, 0.25, 0.5, 0.75, 0.95)
    summaries = {}
    for column in ("unavailability", "availability"):
        values = lhs[column]
        summaries[column] = {
            "samples": int(values.size),
            "mean": float(values.mean()),
            "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
            "quantiles": {
                f"{level:.2f}": float(np.quantile(values, level))
                for level in quantile_levels
            },
        }
    return {"lhs": summaries}


__all__ = [
    "PointResult",
    "SweepConfig",
    "SweepFactory",
    "enumerate_points",
    "evaluate_point",
    "rows_from_table",
    "rows_to_table",
    "run_sweep",
    "verify_bit_identical",
]
