"""Compositional aggregation of Arcade building blocks (Section 4).

The composer replaces the CADP-based "Composer tool" of the paper: it
incrementally composes the I/O-IMCs of the building blocks using the
parallel composition operator, hides every signal as soon as all of its
listeners have been composed in, and reduces the intermediate model after
every step (maximal progress, vanishing-state elimination and bisimulation
lumping).  This *compositional aggregation* is what keeps the state space
manageable; the statistics gathered along the way (largest intermediate
model, per-step sizes) reproduce the numbers reported in Sections 5.1.2 and
5.2.2 of the paper.

The composition order is given by the user as a (possibly nested) list of
block names — nested groups are composed and reduced first, mirroring the
hierarchical subsystem structure of the case studies — derived by a simple
greedy heuristic when no order is supplied, or searched automatically by
the cost-model-guided planner of :mod:`repro.planner` with
``order="auto"``.

With ``cache="on"`` (or a shared :class:`~repro.composer.cache.QuotientCache`
instance) the composer additionally memoises every step under an
isomorphism-aware key, so replicated subtrees — the DDS disk clusters, the
RCS pump lines — are composed and minimised once and every further copy is
rebased from the cache onto its concrete signal names (see
:mod:`repro.composer.cache` and ``docs/caching.md``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as PoolTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..ctmc import CTMC, extract_ctmc, lump
from ..errors import CompositionError, StateBudgetError
from ..ioimc import IOIMC, Signature, compose, hide
from ..ioimc.canonical import rebase_actions
from ..lumping import (
    eliminate_vanishing_chains,
    maximal_progress_cut,
    minimize_branching,
    minimize_strong,
    minimize_weak,
)
from ..arcade.semantics import TranslatedModel
from ..resilience.faults import active_fault, active_fault_plan, inject_faults
from ..resilience.retry import RecoveryEvent, RetryPolicy
from ..telemetry.sink import MemorySink
from ..telemetry.trace import Telemetry, current_telemetry, gauge_max, incr
from ..telemetry.trace import span as telemetry_span
from .cache import (
    QuotientCache,
    StepSkeleton,
    SubtreeFingerprint,
    resolve_cache,
    structure_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner uses composer)
    from ..planner import CostParameters, PlanReport

#: Composition orders are nested sequences of block names.
CompositionOrder = Sequence["str | CompositionOrder"]

#: The bisimulation variants the reduction pipeline can apply between steps.
REDUCTION_MODES = ("strong", "weak", "branching", "none")


@dataclass(frozen=True)
class CompositionStep:
    """Size and timing bookkeeping for one composition step.

    The ``*_before_reduction`` sizes are those of the product the step
    built, which excludes the states only a maximal-progress cut edge
    reaches.  ``compose_seconds`` covers building the automaton that
    minimisation starts from (product, hiding, vanishing-chain elimination
    and reachability, or their re-gather); ``reduce_seconds`` covers the
    minimisation.
    """

    description: str
    states_before_reduction: int
    transitions_before_reduction: int
    states_after_reduction: int
    transitions_after_reduction: int
    hidden_actions: tuple[str, ...]
    compose_seconds: float = 0.0
    reduce_seconds: float = 0.0
    #: Served from the quotient cache: the recorded sizes reproduce the
    #: uncached trajectory, the timings are the (tiny) rebase cost.
    cache_hit: bool = False
    #: *Net* wall-clock a hit saved: the original computation's cost minus
    #: the time spent serving (rebasing) the hit, floored at 0 (0 on
    #: misses).  Summing these per run — and, on a shared cache, across
    #: runs — reconciles exactly with ``QuotientCache.saved_seconds``.
    saved_seconds: float = 0.0
    #: How many leaf blocks each operand of this step contained; a hit with
    #: ``min(operand_blocks) > 1`` is an above-leaf (composite x composite
    #: or composite x subtree) join served from the cache.
    operand_blocks: tuple[int, int] = (1, 1)
    #: A miss whose product was not rebuilt: the quotient cache held the
    #: step's rate-free skeleton and only the current rates were gathered.
    regathered: bool = False

    @property
    def seconds(self) -> float:
        """Total wall-clock time of this step."""
        return self.compose_seconds + self.reduce_seconds


@dataclass
class CompositionStatistics:
    """Aggregated statistics of a full compositional-aggregation run."""

    steps: list[CompositionStep] = field(default_factory=list)
    final_reduce_seconds: float = 0.0
    #: Worker-pool size the run used (1 = fully serial).
    jobs: int = 1
    #: Subtree tasks re-submitted after a timeout or a pool break.
    worker_retries: int = 0
    #: Subtree tasks whose worker future exceeded the retry policy's deadline.
    worker_timeouts: int = 0
    #: Times the process pool broke (a worker died) and was recreated.
    pool_breaks: int = 0
    #: Subtree tasks composed serially in the parent after exhausting retries.
    serial_fallbacks: int = 0
    #: Every recovery action of the run, in the order it was taken — the
    #: never-silent record: a run that survived a fault says so here, in the
    #: ``resilience.*`` telemetry counters, and nowhere in its measures.
    recovery_events: list[RecoveryEvent] = field(default_factory=list)

    def record(self, step: CompositionStep) -> None:
        self.steps.append(step)

    def record_recovery(self, event: RecoveryEvent) -> None:
        self.recovery_events.append(event)
        incr(f"resilience.{event.kind}")

    @property
    def largest_intermediate_states(self) -> int:
        """States of the largest I/O-IMC encountered during generation."""
        return max((step.states_before_reduction for step in self.steps), default=0)

    @property
    def largest_intermediate_transitions(self) -> int:
        """Transitions of the largest I/O-IMC encountered during generation."""
        return max((step.transitions_before_reduction for step in self.steps), default=0)

    @property
    def total_compose_seconds(self) -> float:
        """Wall-clock time spent building parallel products."""
        return sum(step.compose_seconds for step in self.steps)

    @property
    def total_reduce_seconds(self) -> float:
        """Wall-clock time spent in the reduction pipeline (incl. final pass)."""
        return (
            sum(step.reduce_seconds for step in self.steps) + self.final_reduce_seconds
        )

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time of composition plus reduction."""
        return self.total_compose_seconds + self.total_reduce_seconds

    @property
    def cache_hits(self) -> int:
        """Steps served from the quotient cache."""
        return sum(1 for step in self.steps if step.cache_hit)

    @property
    def cache_saved_seconds(self) -> float:
        """Net wall-clock this run's cache hits saved (original cost minus
        the serve time, per hit)."""
        return sum(step.saved_seconds for step in self.steps if step.cache_hit)

    def as_table(self) -> list[dict[str, object]]:
        """Per-step rows: the ``"steps"`` block of :meth:`to_dict`, which the
        benchmark exporters print and serialise."""
        return [
            {
                "step": step.description,
                "states_before": step.states_before_reduction,
                "transitions_before": step.transitions_before_reduction,
                "states_after": step.states_after_reduction,
                "transitions_after": step.transitions_after_reduction,
                "hidden": len(step.hidden_actions),
                "compose_s": round(step.compose_seconds, 4),
                "reduce_s": round(step.reduce_seconds, 4),
                "cache_hit": step.cache_hit,
            }
            for step in self.steps
        ]

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable summary — the schema the telemetry stream and
        the benchmark exporters share (per-step rows under ``"steps"``)."""
        return {
            "jobs": self.jobs,
            "num_steps": len(self.steps),
            "largest_intermediate_states": self.largest_intermediate_states,
            "largest_intermediate_transitions": self.largest_intermediate_transitions,
            "total_compose_seconds": self.total_compose_seconds,
            "total_reduce_seconds": self.total_reduce_seconds,
            "final_reduce_seconds": self.final_reduce_seconds,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "cache_saved_seconds": self.cache_saved_seconds,
            "worker_retries": self.worker_retries,
            "worker_timeouts": self.worker_timeouts,
            "pool_breaks": self.pool_breaks,
            "serial_fallbacks": self.serial_fallbacks,
            "recovery_events": [
                {
                    "kind": event.kind,
                    "key": event.key,
                    "attempt": event.attempt,
                    "detail": event.detail,
                }
                for event in self.recovery_events
            ],
            "steps": self.as_table(),
        }


@dataclass
class ComposedSystem:
    """Result of the compositional aggregation: the system I/O-IMC and CTMC."""

    ioimc: IOIMC
    ctmc: CTMC
    statistics: CompositionStatistics
    #: Search report of the order planner; only set for ``order="auto"`` runs.
    plan_report: "PlanReport | None" = None
    #: The quotient cache the run used (``None`` when caching was off).
    cache: QuotientCache | None = None

    @property
    def ctmc_summary(self) -> dict[str, int]:
        return self.ctmc.summary()


class Composer:
    """Performs compositional aggregation on a translated Arcade model.

    Parameters
    ----------
    translated:
        The building-block I/O-IMCs and listener map produced by
        :func:`repro.arcade.semantics.translate_model`.
    order:
        Composition order as a (possibly nested) sequence of block names;
        nested groups are composed and reduced first, mirroring the
        hierarchical subsystem structure of the case studies.  ``None``
        falls back to the greedy heuristic of :meth:`default_order`; the
        string ``"auto"`` invokes the cost-model-guided order search of
        :func:`repro.planner.plan_order` (the resulting
        :class:`~repro.planner.PlanReport` is exposed as
        :attr:`plan_report` and on the returned :class:`ComposedSystem`).
    reduction:
        Bisimulation variant applied to every intermediate model:
        ``"strong"`` (default; always sound, preserves every measure),
        ``"branching"`` (inert-tau-abstracting — the equivalence CADP's
        minimisation uses in the paper's tool chain), ``"weak"``
        (tau-abstracting, the coarsest of the three) or ``"none"``.
    eliminate_vanishing:
        Collapse tau-only vanishing chains between composition steps
        (:func:`repro.lumping.eliminate_vanishing_chains`).
    lump_final_ctmc:
        Additionally lump the extracted CTMC modulo ordinary lumpability.
    cache:
        Isomorphism-aware memoisation policy: ``"on"`` (a fresh
        :class:`~repro.composer.cache.QuotientCache`), ``"off"``/``None``
        (default, no memoisation) or an existing cache instance to share
        hits across several runs.  Replicated subtrees are composed and
        reduced once; further copies are rebased from the cache via their
        canonical renaming witness, reproducing the uncached pipeline's
        results exactly (see ``docs/caching.md``).
    plan_parameters:
        Cost-model damping parameters for ``order="auto"``: a
        :class:`~repro.planner.CostParameters` instance or a path to a JSON
        file persisted by :func:`repro.planner.save_cost_parameters` (e.g.
        the per-family files the benchmarks export).  ``None`` uses the
        built-in DDS/RCS-fitted defaults.
    jobs:
        Worker-pool size for parallel subtree aggregation.  With ``jobs >
        1`` the independent nested groups of the composition order (the
        affinity-group subtrees) are composed, hidden and reduced in a
        :class:`~concurrent.futures.ProcessPoolExecutor`, their statistics
        and cache entries merged back, and only the left-deep join spine
        runs serially — bit-identical to the serial run (see
        ``docs/architecture.md``).  Flat orders and single-subtree orders
        fall back to the serial path.
    retry:
        :class:`~repro.resilience.RetryPolicy` bounding the parallel
        dispatch's recovery from crashed (``BrokenProcessPool``) and hung
        (per-task timeout) workers: bounded retry with backoff, then — when
        the policy allows — graceful serial fallback in the parent.  Every
        recovery is recorded in :class:`CompositionStatistics` and the
        ``resilience.*`` telemetry counters; the composed result stays
        bit-identical to an undisturbed run because the serial fallback and
        the workers run the very same fold.  ``None`` uses the defaults
        (3 attempts, no deadline, serial fallback on).  See
        ``docs/robustness.md``.
    state_budget:
        Hard ceiling on any step's *pre-reduction* product size (the
        states it builds).
        A step that exceeds it raises
        :class:`~repro.errors.StateBudgetError` (a
        :class:`~repro.errors.CompositionError`) instead of consuming
        unbounded memory — the sweep driver's per-point isolation turns
        that into an error row.  Checked identically on cache hits (from
        the entry's recorded pre-reduction size) and in worker processes.
        ``None`` (default) disables the check.
    """

    def __init__(
        self,
        translated: TranslatedModel,
        *,
        order: CompositionOrder | str | None = None,
        reduction: str = "strong",
        eliminate_vanishing: bool = True,
        lump_final_ctmc: bool = True,
        cache: QuotientCache | str | None = None,
        plan_budget: int | None = None,
        plan_seed: int = 0,
        plan_parameters: "CostParameters | str | None" = None,
        jobs: int = 1,
        retry: "RetryPolicy | None" = None,
        state_budget: int | None = None,
    ) -> None:
        if reduction not in REDUCTION_MODES:
            raise CompositionError(
                f"unknown reduction {reduction!r} (expected one of {REDUCTION_MODES})"
            )
        if jobs < 1:
            raise CompositionError(f"jobs must be >= 1, got {jobs}")
        if state_budget is not None and state_budget < 1:
            raise CompositionError(
                f"state_budget must be >= 1, got {state_budget}"
            )
        if isinstance(order, str) and order != "auto":
            raise CompositionError(
                f"unknown order {order!r} (pass an explicit nested order, "
                'None for the greedy heuristic, or "auto" for the planner)'
            )
        self.translated = translated
        self.order = order
        #: Search budget / RNG seed forwarded to the planner for
        #: ``order="auto"`` (``None`` budget = the planner's default).
        self.plan_budget = plan_budget
        self.plan_seed = plan_seed
        self.plan_parameters = plan_parameters
        #: The planner's :class:`~repro.planner.PlanReport` of the last
        #: ``order="auto"`` run (``None`` otherwise).
        self.plan_report: "PlanReport | None" = None
        self.reduction = reduction
        self.eliminate_vanishing = eliminate_vanishing
        self.lump_final_ctmc = lump_final_ctmc
        #: The resolved quotient cache (``None`` when caching is off).  The
        #: same instance survives re-runs of :meth:`compose`, so repeated
        #: pipelines (availability + no-repair reliability, growth sweeps)
        #: compound their hits.
        self.cache: QuotientCache | None = resolve_cache(cache)
        #: Worker-pool size for parallel subtree aggregation (1 = serial).
        self.jobs = jobs
        #: Recovery bounds of the parallel dispatch (defaults when ``None``).
        self.retry = retry if retry is not None else RetryPolicy()
        #: Pre-reduction state ceiling per step (``None`` = unbounded).
        self.state_budget = state_budget
        self.statistics = CompositionStatistics()
        self._composed_blocks: set[str] = set()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def compose(self) -> ComposedSystem:
        """Run the full pipeline: compose, hide, reduce, extract the CTMC."""
        with telemetry_span(
            "compose.run",
            model=self.translated.model.name,
            reduction=self.reduction,
            jobs=self.jobs,
            cache="on" if self.cache is not None else "off",
            blocks=len(self.translated.blocks),
        ) as run_span:
            # Fresh report per run: only an "auto" resolution below re-sets it,
            # so a re-run with a different order must not carry the old plan
            # along.
            self.plan_report = None
            order = self._resolve_order()
            self._composed_blocks = set()
            # Fresh statistics per run: compose() is re-runnable and must not
            # accumulate steps/timings across invocations.  (The quotient
            # cache, in contrast, deliberately survives re-runs.)
            self.statistics = CompositionStatistics()
            if self.jobs > 1:
                system, _, _ = self._compose_parallel(order)
            else:
                system, _, _ = self._compose_group(order)
            missing = set(self.translated.blocks) - self._composed_blocks
            if missing:
                raise CompositionError(
                    f"composition order does not cover block(s) {sorted(missing)}"
                )
            # Close the system: everything still visible can be hidden now.
            # The cut is a no-op unless no product was built (one block).
            system = maximal_progress_cut(hide(system, system.signature.outputs))
            started = time.perf_counter()
            with telemetry_span("compose.final_reduce", reduction=self.reduction):
                system = self._reduce(system)
            self.statistics.final_reduce_seconds += time.perf_counter() - started
            ctmc = extract_ctmc(system)
            if self.lump_final_ctmc:
                ctmc = lump(ctmc).quotient
            run_span.set(
                steps=len(self.statistics.steps),
                peak_states=self.statistics.largest_intermediate_states,
                cache_hits=self.statistics.cache_hits,
                ctmc_states=ctmc.num_states,
            )
            gauge_max(
                "compose.peak_states", self.statistics.largest_intermediate_states
            )
            return ComposedSystem(
                ioimc=system,
                ctmc=ctmc,
                statistics=self.statistics,
                plan_report=self.plan_report,
                cache=self.cache,
            )

    def _resolve_order(self) -> CompositionOrder:
        """The order to compose in: explicit, planned (``"auto"``) or greedy."""
        if self.order is None:
            return self.default_order()
        if isinstance(self.order, str):  # validated to be "auto" in __init__
            from ..planner import plan_order  # late import: planner uses composer

            keywords: dict = {} if self.plan_budget is None else {"budget": self.plan_budget}
            if self.plan_parameters is not None:
                keywords["parameters"] = self.plan_parameters
            if self.cache is not None:
                # Let the search price the 2nd..N-th copy of an isomorphic
                # sibling group at ~0 (the cache will serve them), and hand
                # the cache itself over so folds it already stores — from a
                # shared pre-warmed cache — discount the *first* copy too.
                keywords["cache_aware"] = True
                keywords["cache"] = self.cache
                keywords["reduction"] = self.reduction
                keywords["eliminate_vanishing"] = self.eliminate_vanishing
            order, self.plan_report = plan_order(
                self.translated, seed=self.plan_seed, **keywords
            )
            return order
        return self.order

    def default_order(self) -> CompositionOrder:
        """Greedy composition order: prefer steps that close open signals.

        Starting from the smallest block, the heuristic repeatedly adds the
        block that allows the largest number of currently-open output signals
        to be hidden, breaking ties towards smaller blocks.  The case studies
        pass an explicit hierarchical order instead (as the paper's users do),
        but the heuristic gives sensible behaviour for ad-hoc models.
        """
        blocks = self.translated.blocks
        remaining = set(blocks)
        if not remaining:
            raise CompositionError("the translated model has no blocks to compose")
        start = min(remaining, key=lambda name: (blocks[name].num_states, name))
        order: list[str] = [start]
        remaining.remove(start)
        composed = {start}
        while remaining:
            def score(name: str) -> tuple[int, int, str]:
                candidate = composed | {name}
                closable = 0
                for block_name in candidate:
                    for action in blocks[block_name].signature.outputs:
                        listeners = self.translated.listeners_of(action)
                        if listeners and listeners <= candidate:
                            closable += 1
                shared = len(
                    blocks[name].signature.visible
                    & set().union(*(blocks[b].signature.visible for b in composed))
                )
                return (-closable, -shared, name)

            best = min(remaining, key=score)
            order.append(best)
            composed.add(best)
            remaining.remove(best)
        return order

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _compose_group(
        self, group: CompositionOrder | str
    ) -> tuple[IOIMC, frozenset[str], SubtreeFingerprint | None]:
        """Recursively compose a (nested) group of blocks.

        Returns the composite together with the set of block names it
        contains — hiding decisions must be taken against the blocks of
        *this* composite, not against everything composed so far (a nested
        group is built separately from the accumulated chain, and hiding one
        of its signals because a listener exists in the not-yet-joined
        accumulated composite would silence the synchronisation forever) —
        and, when caching, the subtree's renaming-invariant fingerprint.
        """
        if isinstance(group, str):
            block = self.translated.blocks.get(group)
            if block is None:
                raise CompositionError(f"unknown block {group!r} in composition order")
            if group in self._composed_blocks:
                raise CompositionError(f"block {group!r} appears twice in the composition order")
            self._composed_blocks.add(group)
            fingerprint = (
                self.cache.leaf_fingerprint(block) if self.cache is not None else None
            )
            return block, frozenset((group,)), fingerprint
        members = list(group)
        if not members:
            raise CompositionError("empty group in composition order")
        composite, blocks, fingerprint = self._compose_group(members[0])
        for member in members[1:]:
            block, member_blocks, block_fingerprint = self._compose_group(member)
            operand_blocks = (len(blocks), len(member_blocks))
            blocks |= member_blocks
            composite, fingerprint = self._step(
                composite, fingerprint, block, block_fingerprint, blocks, operand_blocks
            )
            # Keep the running composite's name short; the full history is in
            # the recorded statistics.  The count is *local* to this subtree
            # (not the global composed-block tally), so a subtree composed in
            # a worker process names its steps identically to a serial run.
            composite = composite.renamed(f"composite[{len(blocks)} blocks]")
        return composite, blocks, fingerprint

    # ------------------------------------------------------------------ #
    # parallel subtree aggregation
    # ------------------------------------------------------------------ #
    def _compose_parallel(
        self, order: CompositionOrder
    ) -> tuple[IOIMC, frozenset[str], SubtreeFingerprint | None]:
        """Compose the order's independent subtrees in a process pool.

        The left-deep spine of the nested order is unrolled into its
        top-level items (see :func:`_spine_items`); every non-leaf item is a
        self-contained subtree — its hiding schedule depends only on its own
        blocks and the full-model listener table — so the subtrees can be
        composed, hidden and reduced concurrently and joined serially
        afterwards, reproducing the serial run bit for bit.  With the cache
        on, only one representative per structural task class is dispatched;
        duplicate subtrees recompose in the parent through the ordinary
        cached path (every step a verified hit) after the worker caches have
        been merged, which also reproduces the serial hit pattern.
        """
        items = _spine_items(order)
        tasks = [
            (index, item)
            for index, item in enumerate(items)
            if not isinstance(item, str)
        ]
        if len(tasks) < 2:
            return self._compose_group(order)
        dispatch: list[tuple[int, CompositionOrder]] = []
        if self.cache is not None:
            seen: set = set()
            for index, item in tasks:
                key = self._task_key(item)
                if key is not None:
                    if key in seen:
                        continue
                    seen.add(key)
                dispatch.append((index, item))
        else:
            dispatch = tasks
        if len(dispatch) < 2:
            return self._compose_group(order)

        workers = min(self.jobs, len(dispatch))
        self.statistics.jobs = workers
        telemetry = current_telemetry()
        results: dict[int, _SubtreeResult] = {}
        with telemetry_span(
            "compose.parallel", workers=workers, subtrees=len(dispatch)
        ) as parallel_span:
            self._run_dispatch(dispatch, workers, telemetry is not None, results)
            if self.statistics.recovery_events:
                parallel_span.set(
                    worker_retries=self.statistics.worker_retries,
                    worker_timeouts=self.statistics.worker_timeouts,
                    pool_breaks=self.statistics.pool_breaks,
                    serial_fallbacks=self.statistics.serial_fallbacks,
                )

            # Merge the worker-side observability alongside the statistics and
            # cache merges below: worker span events splice into this trace
            # (re-parented onto the compose.parallel span), worker metrics
            # snapshots fold into the ambient registry — in item order, so the
            # merged stream is deterministic across worker counts.
            if telemetry is not None:
                for index in sorted(results):
                    result = results[index]
                    telemetry.ingest(
                        result.events, parent_id=parallel_span.span_id
                    )
                    telemetry.metrics.merge_snapshot(result.metrics_snapshot)

        # Merge the worker caches in item order — not completion order — so
        # the parent cache's contents and counters are deterministic across
        # runs and worker counts.
        if self.cache is not None:
            for index in sorted(results):
                result = results[index]
                if result.cache is None:
                    continue
                if self.cache.merge_from(result.cache):
                    incr("cache.merges")
                else:
                    # A cross-process digest collision failed verification:
                    # the worker's entries were not imported, and no
                    # descendant key may be derived from its identity.
                    result.fingerprint = None

        composite: IOIMC | None = None
        fingerprint: SubtreeFingerprint | None = None
        blocks: frozenset[str] = frozenset()
        for index, item in enumerate(items):
            result = results.get(index)
            if result is not None:
                duplicates = self._composed_blocks & result.blocks
                if duplicates:
                    raise CompositionError(
                        f"block {sorted(duplicates)[0]!r} appears twice in the "
                        "composition order"
                    )
                self._composed_blocks |= result.blocks
                self.statistics.steps.extend(result.steps)
                part, part_blocks, part_fingerprint = (
                    result.ioimc,
                    result.blocks,
                    result.fingerprint,
                )
            else:
                part, part_blocks, part_fingerprint = self._compose_group(item)
            if composite is None:
                composite, blocks, fingerprint = part, part_blocks, part_fingerprint
                continue
            operand_blocks = (len(blocks), len(part_blocks))
            blocks |= part_blocks
            composite, fingerprint = self._step(
                composite, fingerprint, part, part_fingerprint, blocks, operand_blocks
            )
            composite = composite.renamed(f"composite[{len(blocks)} blocks]")
        assert composite is not None  # len(items) >= 2 here
        return composite, blocks, fingerprint

    def _subtree_payload(
        self, item, traced: bool, task_id: str | None, attempt: int, fault_plan
    ):
        """The picklable argument tuple of one subtree task.

        ``task_id``/``attempt`` key the worker-side injection sites
        (``worker.crash``, ``worker.timeout``); the serial fallback passes
        ``task_id=None`` and ``fault_plan=None`` so those sites stay dead in
        the parent process — the parent-side sites (``compose.blowup``)
        still see the ambient plan through the contextvar.
        """
        return (
            self._subtree_translated(item),
            item,
            self.reduction,
            self.eliminate_vanishing,
            self.cache is not None,
            traced,
            self.state_budget,
            task_id,
            attempt,
            fault_plan,
        )

    def _run_dispatch(
        self,
        dispatch: list,
        workers: int,
        traced: bool,
        results: "dict[int, _SubtreeResult]",
    ) -> None:
        """Run the subtree tasks through the pool under the retry policy.

        Fault model: a dispatched task either returns, raises a library
        error, stalls past the policy deadline, or takes the pool down
        (``BrokenProcessPool``).  Timeouts and pool breaks are *recoverable*
        — the task is re-submitted up to ``max_attempts`` times (a broken
        pool is recreated first), then composed serially in the parent when
        the policy allows.  A library exception raised *by* the worker is
        deterministic — retrying cannot change it — and propagates
        immediately.  Every recovery is recorded on the statistics and the
        ``resilience.*`` counters; none changes the composed result, because
        workers, retries and the serial fallback all run the identical fold.

        On any escaping exception — including ``KeyboardInterrupt`` — the
        pool is torn down hard (``cancel_futures`` plus ``terminate`` on
        live workers), so an aborted run leaves no orphan processes behind.
        """
        policy = self.retry
        fault_plan = active_fault_plan()
        statistics = self.statistics
        pending: dict[int, tuple] = {index: (item, 0) for index, item in dispatch}
        stalled = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while pending:
                futures = []
                for index in sorted(pending):
                    item, attempt = pending[index]
                    delay = policy.backoff(attempt)
                    if delay > 0.0:
                        time.sleep(delay)
                    futures.append(
                        (
                            index,
                            pool.submit(
                                _compose_subtree_worker,
                                self._subtree_payload(
                                    item,
                                    traced,
                                    f"subtree:{index}",
                                    attempt,
                                    fault_plan,
                                ),
                            ),
                        )
                    )
                failures: dict[int, tuple[str, str]] = {}
                pool_broken = False
                for index, future in futures:
                    if pool_broken:
                        # The pool died earlier in this round: harvest what
                        # finished, mark the rest as casualties of the break.
                        if (
                            future.done()
                            and not future.cancelled()
                            and future.exception() is None
                        ):
                            results[index] = future.result()
                            del pending[index]
                        else:
                            failures[index] = (
                                "pool_broken",
                                "process pool broke during the round",
                            )
                        continue
                    try:
                        results[index] = future.result(
                            timeout=policy.timeout_seconds
                        )
                        del pending[index]
                    except PoolTimeout:
                        # The stalled worker keeps its slot until it finishes;
                        # its late result is discarded (the pool is killed at
                        # the end instead of drained).
                        stalled = True
                        statistics.worker_timeouts += 1
                        failures[index] = (
                            "timeout",
                            f"no result within {policy.timeout_seconds}s",
                        )
                    except BrokenProcessPool as error:
                        pool_broken = True
                        failures[index] = ("pool_broken", repr(error))
                if pool_broken:
                    statistics.pool_breaks += 1
                    statistics.record_recovery(
                        RecoveryEvent(
                            kind="pool_broken",
                            key="pool",
                            attempt=-1,
                            detail="a worker died; recreating the pool",
                        )
                    )
                    _terminate_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
                for index in sorted(failures):
                    kind, detail = failures[index]
                    item, attempt = pending[index]
                    if kind == "timeout":
                        statistics.record_recovery(
                            RecoveryEvent(
                                kind="timeout",
                                key=f"subtree:{index}",
                                attempt=attempt,
                                detail=detail,
                            )
                        )
                    if attempt + 1 < policy.max_attempts:
                        statistics.worker_retries += 1
                        statistics.record_recovery(
                            RecoveryEvent(
                                kind="retry",
                                key=f"subtree:{index}",
                                attempt=attempt + 1,
                                detail=f"re-dispatch after {kind}",
                            )
                        )
                        pending[index] = (item, attempt + 1)
                    elif policy.serial_fallback:
                        statistics.serial_fallbacks += 1
                        statistics.record_recovery(
                            RecoveryEvent(
                                kind="serial_fallback",
                                key=f"subtree:{index}",
                                attempt=attempt,
                                detail=f"attempts exhausted after {kind}; "
                                "composing in the parent",
                            )
                        )
                        results[index] = _compose_subtree_worker(
                            self._subtree_payload(item, traced, None, 0, None)
                        )
                        del pending[index]
                    else:
                        raise CompositionError(
                            f"subtree task {index} failed after "
                            f"{policy.max_attempts} attempt(s) ({kind}: {detail}) "
                            "and serial fallback is disabled"
                        )
        except BaseException:
            _terminate_pool(pool)
            raise
        if stalled:
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True)

    def _task_key(self, item: "CompositionOrder | str"):
        """Structural identity of one subtree task (leaf digests + shape).

        ``None`` disables deduplication for subtrees containing a leaf the
        cache cannot fingerprint.  The key is a dispatch heuristic only:
        falsely merged tasks cannot corrupt anything (the "duplicate"
        recomposes in the parent through the verified cache path, missing
        where its steps differ), a false split merely costs a redundant
        worker.
        """
        if isinstance(item, str):
            block = self.translated.blocks.get(item)
            if block is None:
                raise CompositionError(f"unknown block {item!r} in composition order")
            fingerprint = self.cache.leaf_fingerprint(block)
            return None if fingerprint is None else fingerprint.key
        parts = []
        for member in item:
            key = self._task_key(member)
            if key is None:
                return None
            parts.append(key)
        return tuple(parts)

    def _subtree_translated(self, item: CompositionOrder) -> TranslatedModel:
        """The restricted model one worker composes against.

        Carries only the subtree's blocks, but the *full model's* listener
        table — a signal observed outside the subtree must stay open until
        the join, exactly as in the serial composer's hiding rule.
        """
        blocks: dict[str, IOIMC] = {}
        for name in _flatten_names(item):
            block = self.translated.blocks.get(name)
            if block is None:
                raise CompositionError(f"unknown block {name!r} in composition order")
            blocks[name] = block
        listener_table: dict[str, frozenset[str]] = {}
        for block in blocks.values():
            for action in block.signature.all_actions:
                listeners = self.translated.listeners_of(action)
                if listeners:
                    listener_table[action] = listeners
        return TranslatedModel(
            model=None,  # workers never consult the Arcade source model
            blocks=blocks,
            top_gate="",
            gates={},
            _listener_table=listener_table,
        )

    def _step(
        self,
        left: IOIMC,
        left_fingerprint: SubtreeFingerprint | None,
        right: IOIMC,
        right_fingerprint: SubtreeFingerprint | None,
        blocks: frozenset[str],
        operand_blocks: tuple[int, int] = (1, 1),
    ) -> tuple[IOIMC, SubtreeFingerprint | None]:
        """One binary step: compose, hide, reduce — or serve it from the cache."""
        description = f"{left.name} || {right.name}"
        with telemetry_span("compose.step", step=description) as step_span:
            return self._step_inner(
                left,
                left_fingerprint,
                right,
                right_fingerprint,
                blocks,
                operand_blocks,
                description,
                step_span,
            )

    def _step_inner(
        self,
        left: IOIMC,
        left_fingerprint: SubtreeFingerprint | None,
        right: IOIMC,
        right_fingerprint: SubtreeFingerprint | None,
        blocks: frozenset[str],
        operand_blocks: tuple[int, int],
        description: str,
        step_span,
    ) -> tuple[IOIMC, SubtreeFingerprint | None]:
        hidable = self._hidable_signals(left.signature, right.signature, blocks)
        cache = self.cache
        plan = None
        if cache is not None and left_fingerprint is not None and right_fingerprint is not None:
            plan = cache.plan_step(left_fingerprint, right_fingerprint, hidable)

        compose_started = time.perf_counter()
        key = None
        entry = None
        if plan is not None:
            key = cache.result_key(
                plan,
                reduction=self.reduction,
                eliminate_vanishing=self.eliminate_vanishing,
            )
            entry = cache.get(key)

        if entry is not None:
            # The budget applies to the *pre-reduction* product a cold run
            # would have built — the entry recorded its size, so a capped
            # run behaves identically with the cache on or off.
            self._check_budget(description, entry.states_before)
            # Cache hit: rebase the stored quotient onto this subtree's
            # concrete signal names; no product, no refinement.
            rename = {
                old: new for old, new in zip(entry.slots, plan.slots) if old != new
            }
            if rename:
                composite = rebase_actions(entry.automaton, rename, name=description)
            else:
                composite = entry.automaton.renamed(description)
            # Net savings: what the original computation cost minus what
            # serving the hit just cost.  ``QuotientCache.saved_seconds``
            # accumulates exactly these per-hit amounts, so the lifetime
            # counter of a shared cache equals the sum of the per-run
            # ``cache_saved_seconds`` — the two reports cannot drift apart.
            serve_seconds = time.perf_counter() - compose_started
            saved_seconds = max(entry.cost_seconds - serve_seconds, 0.0)
            cache.hits += 1
            cache.saved_seconds += saved_seconds
            incr("cache.hits")
            incr("cache.saved_seconds", saved_seconds)
            step = CompositionStep(
                description=description,
                states_before_reduction=entry.states_before,
                transitions_before_reduction=entry.transitions_before,
                states_after_reduction=entry.states_after,
                transitions_after_reduction=entry.transitions_after,
                hidden_actions=tuple(hidable),
                compose_seconds=serve_seconds,
                reduce_seconds=0.0,
                cache_hit=True,
                saved_seconds=saved_seconds,
                operand_blocks=operand_blocks,
            )
            step_span.set(
                states_before=entry.states_before,
                states_after=entry.states_after,
                cache_hit=True,
            )
            self.statistics.record(step)
            return composite, SubtreeFingerprint(key, plan.slots)

        composite, states_before, transitions_before, regathered = self._prefix(
            left, right, hidable, description
        )
        compose_seconds = time.perf_counter() - compose_started
        reduce_started = time.perf_counter()
        composite = self._minimise(composite)
        reduce_seconds = time.perf_counter() - reduce_started
        after = composite.summary()
        next_fingerprint = None
        if plan is not None:
            cache.misses += 1
            incr("cache.misses")
            if cache.store(
                key,
                plan,
                composite,
                states_before=states_before,
                transitions_before=transitions_before,
                compose_seconds=compose_seconds,
                reduce_seconds=reduce_seconds,
            ):
                incr("cache.stores")
                next_fingerprint = SubtreeFingerprint(key, plan.slots)
        step = CompositionStep(
            description=description,
            states_before_reduction=states_before,
            transitions_before_reduction=transitions_before,
            states_after_reduction=after["states"],
            transitions_after_reduction=after["transitions"],
            hidden_actions=tuple(hidable),
            compose_seconds=compose_seconds,
            reduce_seconds=reduce_seconds,
            operand_blocks=operand_blocks,
            regathered=regathered,
        )
        step_span.set(
            states_before=states_before,
            states_after=after["states"],
            cache_hit=False,
            regathered=regathered,
        )
        gauge_max("compose.peak_states", states_before)
        self.statistics.record(step)
        return composite, next_fingerprint

    def _prefix(
        self, left: IOIMC, right: IOIMC, hidable: list[str], description: str
    ) -> tuple[IOIMC, int, int, bool]:
        """The automaton a missed step minimises, and the product's size.

        With a cache, a structure seen for the second time stores its
        :class:`~repro.composer.cache.StepSkeleton`, and every later miss
        with that structure gathers its rates through it instead of
        rebuilding the product.  The result is the same automaton either
        way; the flag says whether it was re-gathered.
        """
        cache = self.cache
        if cache is None:
            return *self._build_prefix(left, right, hidable, description), False
        key = structure_key(
            left, right, hidable, eliminate_vanishing=self.eliminate_vanishing
        )
        skeleton = cache.skeleton(key)
        regathered = skeleton is not None
        if regathered:
            self._check_budget(description, skeleton.states_before)
            cache.regathers += 1
            incr("cache.regathers")
        elif cache.sighted_before(key):
            skeleton = StepSkeleton.probe(
                left,
                right,
                lambda l, r: self._build_prefix(l, r, hidable, description),
            )
            cache.store_skeleton(key, skeleton)
            incr("cache.skeleton_stores")
        else:
            return *self._build_prefix(left, right, hidable, description), False
        return (
            skeleton.regather(left, right, description),
            skeleton.states_before,
            skeleton.transitions_before,
            regathered,
        )

    def _build_prefix(
        self, left: IOIMC, right: IOIMC, hidable: list[str], description: str
    ) -> tuple[IOIMC, int, int]:
        """Product → hide → :meth:`_prune`, with the product's size.

        The maximal-progress cut is fused into the product, so the states it
        would throw away are never built; the sizes count what was.
        """
        product = compose(left, right, name=description, maximal_progress=True)
        before = product.summary()
        self._check_budget(description, before["states"])
        composite = self._prune(hide(product, hidable))
        return composite, before["states"], before["transitions"]

    def _check_budget(self, description: str, states: int) -> None:
        """Enforce the pre-reduction state ceiling on one step.

        Only live when ``state_budget`` is set; the ``compose.blowup``
        injection site (keyed by the step description) then inflates the
        observed size, so chaos tests can trigger a deterministic
        :class:`~repro.errors.StateBudgetError` on an otherwise small model.
        """
        budget = self.state_budget
        if budget is None:
            return
        observed = float(states)
        fault = active_fault("compose.blowup", key=description)
        if fault is not None:
            observed = observed * fault.factor
            incr("resilience.fault.blowup")
        if observed > budget:
            inflated = " (inflated by an injected blowup)" if fault is not None else ""
            raise StateBudgetError(
                f"step {description!r}: intermediate product of {states} "
                f"states{inflated} exceeds the state budget of {budget}"
            )

    def _hidable_signals(
        self, left: Signature, right: Signature, blocks: frozenset[str]
    ) -> list[str]:
        """Outputs of ``left || right`` whose listeners are all in ``blocks``.

        The composite's output set is exactly the union of the operands'
        outputs (outputs win over inputs under signature composition), so
        the hiding schedule can be decided before the product is built —
        which is what lets a cache hit skip the product entirely.  For a
        plain left-deep order ``blocks`` is everything composed so far;
        inside a nested group it is only the group's own blocks, so a signal
        whose listener lives in the accumulated composite stays open until
        the join.
        """
        return [
            action
            for action in sorted(left.outputs | right.outputs)
            if self.translated.listeners_of(action) <= blocks
        ]

    def _reduce(self, automaton: IOIMC) -> IOIMC:
        """Apply the reduction pipeline to an intermediate model.

        The model is already cut: every product is built under maximal
        progress and every reduction below preserves it.
        """
        return self._minimise(self._prune(automaton))

    def _prune(self, automaton: IOIMC) -> IOIMC:
        """Vanishing-chain elimination (if enabled) and reachability.

        Like the product and hiding, this only selects and copies edges and
        never reads a rate, which is what lets a step skeleton stand in for
        all three.
        """
        if self.eliminate_vanishing:
            automaton = eliminate_vanishing_chains(automaton)
        return automaton.restrict_to_reachable()

    def _minimise(self, automaton: IOIMC) -> IOIMC:
        """Bisimulation minimisation under the configured reduction."""
        if self.reduction == "strong":
            automaton = minimize_strong(automaton).quotient
        elif self.reduction == "weak":
            automaton = minimize_weak(automaton).quotient
        elif self.reduction == "branching":
            automaton = minimize_branching(automaton).quotient
        return automaton


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without draining it, leaving no orphan workers.

    Used on abort (``KeyboardInterrupt``/SIGTERM, escaping errors), after a
    ``BrokenProcessPool`` and when timed-out workers are still stalled at
    the end of dispatch: queued futures are cancelled and live worker
    processes terminated, then reaped with a short join.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=1.0)


def _flatten_names(item: "CompositionOrder | str") -> list[str]:
    """Block names of a (possibly nested) order item, in composition sequence."""
    if isinstance(item, str):
        return [item]
    names: list[str] = []
    for member in item:
        names.extend(_flatten_names(member))
    return names


def _spine_items(order: CompositionOrder) -> list:
    """Unroll a left-deep nested order into its top-level spine items.

    The composer's fold of ``[prev, nested, *gates]`` is equivalent to
    walking ``_spine_items(prev) + [nested, *gates]`` left to right: hiding
    decisions depend only on the accumulated block set, which grows
    identically either way.  A leading run of leaf names (the first
    subsystem group of a hierarchical order) is kept together as one item
    so it can be dispatched as a subtree of its own.
    """
    items = list(order)
    if not items:
        raise CompositionError("empty group in composition order")
    first = items[0]
    if isinstance(first, str):
        split = 1
        while split < len(items) and isinstance(items[split], str):
            split += 1
        head = first if split == 1 else items[:split]
        return [head] + items[split:]
    return _spine_items(first) + items[1:]


@dataclass
class _SubtreeResult:
    """What one worker sends back for its subtree."""

    ioimc: IOIMC
    blocks: frozenset
    fingerprint: SubtreeFingerprint | None
    steps: tuple
    cache: QuotientCache | None
    #: Telemetry span events the worker's session buffered (empty when the
    #: parent ran without telemetry); spliced into the parent trace via
    #: :meth:`repro.telemetry.trace.Telemetry.ingest`.
    events: tuple = ()
    #: The worker registry's snapshot, folded into the parent's metrics.
    metrics_snapshot: dict | None = None


def _compose_subtree_worker(payload) -> _SubtreeResult:
    """Process-pool entry point: compose one independent subtree.

    The payload carries a restricted :class:`TranslatedModel` (the subtree's
    blocks plus the full-model listener table), the reduction settings, the
    state budget, and the fault-injection context: the parent's
    :class:`~repro.resilience.FaultPlan` (contextvars do not cross the
    process boundary, so the plan travels in the payload and is re-activated
    here) plus this task's stable id and retry attempt, which key the
    worker-side injection sites — ``worker.crash`` fail-stops the process
    (the parent observes a ``BrokenProcessPool``), ``worker.timeout`` stalls
    it past the parent's deadline.  The serial fallback calls this function
    in-process with ``task_id=None``, which keeps both sites dead.

    The worker runs the ordinary serial fold — against a fresh cache when
    the parent run caches, so within-subtree replicas still hit — and
    returns the composite, its per-step statistics and the cache for the
    parent to merge.  When the parent run is traced, the worker runs its own
    memory-sink telemetry session and ships the buffered span events and
    metrics snapshot back alongside.
    """
    (
        translated,
        item,
        reduction,
        eliminate_vanishing,
        use_cache,
        traced,
        state_budget,
        task_id,
        attempt,
        fault_plan,
    ) = payload
    with inject_faults(fault_plan):
        if task_id is not None:
            if active_fault("worker.crash", key=task_id, attempt=attempt) is not None:
                # Fail-stop, as a real worker crash would be: no unwinding, no
                # result, the parent's pool breaks.
                os._exit(17)
            stall = active_fault("worker.timeout", key=task_id, attempt=attempt)
            if stall is not None:
                time.sleep(stall.sleep_seconds)
        composer = Composer(
            translated,
            order=item,
            reduction=reduction,
            eliminate_vanishing=eliminate_vanishing,
            cache="on" if use_cache else None,
            state_budget=state_budget,
        )
        events: tuple = ()
        metrics_snapshot: dict | None = None
        if traced:
            telemetry = Telemetry(MemorySink())
            with telemetry.activate():
                with telemetry.span("compose.subtree", subtree_blocks=len(_flatten_names(item))):
                    ioimc, blocks, fingerprint = composer._compose_group(item)
            events = tuple(telemetry.export_events())
            metrics_snapshot = telemetry.metrics.snapshot() or None
        else:
            ioimc, blocks, fingerprint = composer._compose_group(item)
    # The cache's per-process memos (identity-keyed leaf fingerprints, step
    # skeletons) stay out of the pickled payload; see QuotientCache.__getstate__.
    return _SubtreeResult(
        ioimc=ioimc,
        blocks=blocks,
        fingerprint=fingerprint,
        steps=tuple(composer.statistics.steps),
        cache=composer.cache,
        events=events,
        metrics_snapshot=metrics_snapshot,
    )


def compose_model(
    translated: TranslatedModel,
    *,
    order: CompositionOrder | str | None = None,
    reduction: str = "strong",
    eliminate_vanishing: bool = True,
    lump_final_ctmc: bool = True,
    cache: QuotientCache | str | None = None,
    plan_budget: int | None = None,
    plan_seed: int = 0,
    plan_parameters: "CostParameters | str | None" = None,
    jobs: int = 1,
    retry: "RetryPolicy | None" = None,
    state_budget: int | None = None,
) -> ComposedSystem:
    """One-call wrapper around :class:`Composer`.

    Accepts the same keyword arguments (see the :class:`Composer` docstring
    for the reduction — ``reduction``, ``eliminate_vanishing`` — the
    quotient cache — ``cache`` — the order planner — ``order="auto"``, ``plan_budget``,
    ``plan_seed``, ``plan_parameters`` — and the resilience bounds —
    ``retry``, ``state_budget``) and returns the fully composed
    :class:`ComposedSystem` with its I/O-IMC, CTMC and per-step statistics.
    """
    composer = Composer(
        translated,
        order=order,
        reduction=reduction,
        eliminate_vanishing=eliminate_vanishing,
        lump_final_ctmc=lump_final_ctmc,
        cache=cache,
        plan_budget=plan_budget,
        plan_seed=plan_seed,
        plan_parameters=plan_parameters,
        jobs=jobs,
        retry=retry,
        state_budget=state_budget,
    )
    return composer.compose()


__all__ = [
    "ComposedSystem",
    "CompositionOrder",
    "CompositionStatistics",
    "CompositionStep",
    "Composer",
    "REDUCTION_MODES",
    "compose_model",
]
