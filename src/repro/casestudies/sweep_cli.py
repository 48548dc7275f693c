"""Shared command-line plumbing for the case-study CLIs.

:func:`case_study_parser` declares every option the DDS and RCS CLIs share
(pipeline, simulation, observability, sweep and resilience groups) and
:func:`run_case_study` parses, configures logging, opens the telemetry
session and hands the namespace to the case study's ``_run``.  Both case
studies expose the same sweep vocabulary::

    python -m repro.casestudies.dds --sweep \\
        --sweep-grid disk_failure_rate=1e-4,1.6667e-4,2.5e-4 \\
        --sweep-grid repair_rate=0.5,1.0,2.0 \\
        --sweep-prior processor_failure_rate=2e-4,1e-3 \\
        --sweep-lhs 32 --cache on \\
        --sweep-out results/dds_sweep

Grid axes are explicit value lists, priors are ``low,high[,log|linear]``
ranges sampled by Latin hypercube, and the results land in the columnar
store (``<out>.npz`` + ``<out>.manifest.json``) of :mod:`repro.sweep.store`.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable

from ..analysis import ArcadeEvaluator
from ..arcade.model import ArcadeModel
from ..composer import resolve_cache
from ..errors import ArcadeError, SweepError
from ..sweep import Prior, SweepConfig, SweepResult, run_sweep
from ..telemetry import (
    add_observability_arguments,
    configure_logging,
    get_logger,
    telemetry_session,
)
from .orders import ORDER_CHOICES

log = get_logger("sweep")


def case_study_parser(description: str) -> argparse.ArgumentParser:
    """A parser with every option the case-study CLIs share.

    Callers add their model-specific options (e.g. the DDS size) to the
    returned parser and pass it to :func:`run_case_study`.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--reduction",
        choices=("strong", "weak", "branching"),
        default="strong",
        help="bisimulation variant applied between composition steps",
    )
    parser.add_argument(
        "--order",
        choices=ORDER_CHOICES,
        default="hierarchical",
        help="composition-order policy: the paper's hierarchical decomposition, "
        "the greedy signal-closing heuristic, or the planner's fault-tree walk "
        "(single evaluations only)",
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off"),
        default="on",
        help="isomorphism-aware quotient cache: compose each replicated "
        "subtree once and rebase the copies",
    )
    parser.add_argument(
        "--backend",
        choices=("compose", "simulate"),
        default="compose",
        help="compose: the paper's compositional-aggregation pipeline; "
        "simulate: RESTART rare-event simulation (no state space built)",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=256,
        help="simulation roots per batch (simulate backend only)",
    )
    parser.add_argument(
        "--rel-error",
        type=float,
        default=None,
        help="target relative CI half-width; keeps adding replication "
        "batches until reached (simulate backend only)",
    )
    parser.add_argument(
        "--sim-horizon",
        type=float,
        default=10_000.0,
        help="time horizon of each simulated trajectory, hours",
    )
    parser.add_argument(
        "--sim-seed",
        type=int,
        default=0,
        help="seed of the simulation RNG stream (single evaluations; sweeps "
        "derive per-point seeds from --root-seed)",
    )
    add_observability_arguments(parser)
    add_sweep_arguments(parser)
    add_resilience_arguments(parser)
    return parser


def run_case_study(
    name: str,
    parser: argparse.ArgumentParser,
    run: Callable,
    argv: list[str] | None = None,
) -> None:
    """Parse ``argv`` and call ``run(args, log)`` inside a telemetry session.

    The run manifest records the RNG root the run consumes: ``root_seed``
    for a sweep, ``sim_seed`` otherwise.  A library error (bad model
    parameters, sweep settings, ...) becomes a usage error: the message on
    stderr and exit status 2, like an option argparse itself refuses.
    """
    args = parser.parse_args(argv)
    if args.sweep and args.order != "hierarchical":
        parser.error(
            f"--order {args.order} cannot be combined with --sweep: sweep points "
            "are composed in the model family's hierarchical order"
        )
    configure_logging(args)
    seeds = {"root_seed": args.root_seed} if args.sweep else {"sim_seed": args.sim_seed}
    try:
        with telemetry_session(name, args, seeds=seeds):
            run(args, get_logger(name))
    except ArcadeError as error:
        parser.error(str(error))


def simulation_evaluator(
    model: ArcadeModel, args: argparse.Namespace
) -> ArcadeEvaluator:
    """The ``--backend simulate`` evaluator configured from the CLI options."""
    return ArcadeEvaluator(
        model,
        backend="simulate",
        sim_seed=args.sim_seed,
        sim_horizon=args.sim_horizon,
        sim_replications=args.replications,
        sim_rel_error=args.rel_error,
    )


def log_cache_summary(logger, summary: dict) -> None:
    """One line of quotient-cache statistics."""
    logger.info(
        "  cache: %s hits / %s misses (hit rate %.0f%%), saved %.2fs",
        summary["hits"],
        summary["misses"],
        100.0 * summary["hit_rate"],
        summary["saved_seconds"],
    )


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``--sweep*`` options on a case-study CLI parser."""
    group = parser.add_argument_group("parameter sweeps")
    group.add_argument(
        "--sweep",
        action="store_true",
        help="run a parameter sweep over the model family instead of a "
        "single evaluation",
    )
    group.add_argument(
        "--sweep-grid",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="grid axis with explicit values (repeatable; full Cartesian "
        "product across axes)",
    )
    group.add_argument(
        "--sweep-prior",
        action="append",
        default=[],
        metavar="AXIS=LOW,HIGH[,log|linear]",
        help="uncertainty prior for Latin-hypercube sampling (repeatable; "
        "default scale: log-uniform)",
    )
    group.add_argument(
        "--sweep-lhs",
        type=int,
        default=0,
        metavar="N",
        help="number of Latin-hypercube samples over the priors",
    )
    group.add_argument(
        "--sweep-out",
        default=None,
        metavar="BASE",
        help="write the columnar results store to BASE.npz + "
        "BASE.manifest.json",
    )
    group.add_argument(
        "--root-seed",
        type=int,
        default=0,
        help="root seed of the per-point SeedSequence spawning discipline",
    )
    group.add_argument(
        "--fd-step",
        type=float,
        default=0.05,
        help="relative step of the central-difference rate sensitivities",
    )
    group.add_argument(
        "--no-importance",
        action="store_true",
        help="skip the Birnbaum / improvement-potential conditioned "
        "evaluations",
    )
    group.add_argument(
        "--sweep-checkpoint",
        default=None,
        metavar="BASE",
        help="crash-safe checkpoint pair (BASE.ckpt.npz + BASE.ckpt.cache.npz) "
        "written as points complete; defaults to the --sweep-out base",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="write the checkpoint every N completed evaluations",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="replay a matching checkpoint before evaluating anything live "
        "(bit-identical to an uninterrupted run)",
    )
    group.add_argument(
        "--isolate-failures",
        action="store_true",
        help="a point whose evaluation raises a library error becomes an "
        "error row instead of killing the sweep",
    )


def add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the shared resilience options on a case-study CLI parser."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persist the quotient cache: load it (checksummed, corrupt "
        "entries quarantined) before evaluating and save it atomically after",
    )
    group.add_argument(
        "--state-budget",
        type=int,
        default=None,
        metavar="STATES",
        help="per-step ceiling on the pre-reduction state count; a step that "
        "would exceed it fails fast with StateBudgetError instead of "
        "exhausting memory",
    )


def load_cache_file(cache, args: argparse.Namespace) -> None:
    """Warm ``cache`` from ``--cache-file`` when the file exists."""
    path = args.cache_file
    if cache is None or path is None or not os.path.exists(path):
        return
    from ..resilience import load_cache

    _, report = load_cache(path, cache)
    log.info(
        "  cache file: loaded %s entries from %s", report.loaded, report.path
    )
    if report.quarantined:
        log.warning(
            "  cache file: quarantined %s corrupt entries (%s)",
            report.quarantined,
            ", ".join(report.quarantined_keys),
        )


def save_cache_file(cache, args: argparse.Namespace) -> None:
    """Persist ``cache`` to ``--cache-file`` (atomic, checksummed)."""
    path = args.cache_file
    if cache is None or path is None:
        return
    from ..resilience import save_cache

    stored = save_cache(cache, path)
    log.info("  cache file: saved %s entries to %s", stored, path)


def parse_grid_specs(specs: list[str]) -> dict[str, list[float]]:
    """``AXIS=V1,V2,...`` option strings to a grid mapping."""
    grid: dict[str, list[float]] = {}
    for spec in specs:
        axis, _, tail = spec.partition("=")
        if not axis or not tail:
            raise SweepError(f"cannot parse grid spec {spec!r} (want AXIS=V1,V2,...)")
        try:
            grid[axis] = [float(token) for token in tail.split(",")]
        except ValueError as error:
            raise SweepError(f"cannot parse grid spec {spec!r}: {error}") from error
    return grid


def parse_prior_specs(specs: list[str]) -> dict[str, Prior]:
    """``AXIS=LOW,HIGH[,log|linear]`` option strings to a prior mapping."""
    priors: dict[str, Prior] = {}
    for spec in specs:
        axis, _, tail = spec.partition("=")
        tokens = tail.split(",") if tail else []
        if not axis or len(tokens) not in (2, 3):
            raise SweepError(
                f"cannot parse prior spec {spec!r} (want AXIS=LOW,HIGH[,log|linear])"
            )
        scale = tokens[2].strip().lower() if len(tokens) == 3 else "log"
        if scale not in ("log", "linear"):
            raise SweepError(
                f"cannot parse prior spec {spec!r}: scale must be 'log' or 'linear'"
            )
        try:
            low, high = float(tokens[0]), float(tokens[1])
        except ValueError as error:
            raise SweepError(f"cannot parse prior spec {spec!r}: {error}") from error
        priors[axis] = Prior(low, high, log=scale == "log")
    return priors


def run_sweep_cli(factory, args: argparse.Namespace, *, default_grid=None) -> SweepResult:
    """Run the sweep described by the parsed CLI options and print a summary."""
    grid = parse_grid_specs(args.sweep_grid)
    priors = parse_prior_specs(args.sweep_prior)
    if not grid and not priors:
        if default_grid is None:
            raise SweepError(
                "the sweep needs at least one --sweep-grid or --sweep-prior axis"
            )
        grid = dict(default_grid)
    checkpoint = args.sweep_checkpoint
    if checkpoint is None and args.resume:
        checkpoint = args.sweep_out
    if args.resume and checkpoint is None:
        raise SweepError("--resume needs --sweep-checkpoint (or --sweep-out)")
    # Resolve the cache here so --cache-file can warm it before the sweep
    # and persist it afterwards (run_sweep accepts the instance unchanged).
    cache = resolve_cache(args.cache)
    load_cache_file(cache, args)
    config = SweepConfig(
        grid=grid,
        priors=priors,
        lhs_samples=args.sweep_lhs if priors else 0,
        backend=args.backend,
        reduction=args.reduction,
        cache=cache,
        root_seed=args.root_seed,
        fd_step=args.fd_step,
        importance=not args.no_importance,
        sim_replications=args.replications,
        sim_rel_error=args.rel_error,
        sim_horizon=args.sim_horizon,
        isolate_failures=args.isolate_failures,
        state_budget=args.state_budget,
        checkpoint=checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    result = run_sweep(factory, config)
    _log_summary(factory.name, result)
    save_cache_file(cache, args)
    if args.sweep_out:
        npz_path, manifest_path = result.save(args.sweep_out)
        log.info("  store: %s + %s", npz_path, manifest_path)
    return result


def _log_summary(name: str, result: SweepResult) -> None:
    totals = result.manifest["totals"]
    log.info(
        "%s sweep: %s points, %s evaluations, %.1fs",
        name,
        totals["points"],
        totals["evaluations"],
        totals["seconds"],
    )
    _log_error_rows(result)
    cache = result.manifest.get("cache")
    if cache:
        log_cache_summary(log, cache)
    for row in result.sensitivities:
        log.info(
            "  dU/d %s: %+.3e (elasticity %+.3f)",
            row["axis"],
            row["derivative"],
            row["elasticity"],
        )
    for row in result.importance:
        log.info(
            "  importance %s: Birnbaum %.3e, improvement potential %.3e",
            row["component"],
            row["birnbaum"],
            row["improvement_potential"],
        )
    distributions = result.manifest.get("distributions", {}).get("lhs")
    if distributions:
        summary = distributions["unavailability"]
        quantiles = summary["quantiles"]
        log.info(
            "  LHS unavailability: mean %.3e, 90%% interval [%.3e, %.3e]",
            summary["mean"],
            quantiles["0.05"],
            quantiles["0.95"],
        )


def _log_error_rows(result: SweepResult) -> None:
    errors = result.manifest["totals"].get("errors", 0)
    if errors:
        log.warning("  %s point(s) failed and were isolated as error rows", errors)


__all__ = [
    "add_resilience_arguments",
    "add_sweep_arguments",
    "case_study_parser",
    "load_cache_file",
    "log_cache_summary",
    "parse_grid_specs",
    "parse_prior_specs",
    "run_case_study",
    "run_sweep_cli",
    "save_cache_file",
    "simulation_evaluator",
]
