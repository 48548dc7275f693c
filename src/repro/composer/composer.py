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
greedy heuristic when no order is supplied, or planned automatically by
the fault-tree walk of :mod:`repro.planner` with ``order="auto"``.

With ``cache="on"`` (or a shared :class:`~repro.composer.cache.QuotientCache`
instance) the composer additionally memoises every step under an
isomorphism-aware key, so replicated subtrees — the DDS disk clusters, the
RCS pump lines — are composed and minimised once and every further copy is
rebased from the cache onto its concrete signal names (see
:mod:`repro.composer.cache` and ``docs/caching.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..ctmc import CTMC, extract_ctmc, lump
from ..errors import CompositionError, StateBudgetError
from ..ioimc import IOIMC, Signature, compose, hide
from ..names import rebind
from ..lumping import (
    eliminate_vanishing_chains,
    maximal_progress_cut,
    minimize_branching,
    minimize_strong,
    minimize_weak,
)
from ..arcade.semantics import TranslatedModel
from ..telemetry.trace import gauge_max
from ..telemetry.trace import span as telemetry_span
from .cache import (
    QuotientCache,
    StepSkeleton,
    SubtreeFingerprint,
    rebase_actions,
    resolve_cache,
    structure_key,
)

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

    def record(self, step: CompositionStep) -> None:
        self.steps.append(step)

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


@dataclass
class ComposedSystem:
    """Result of the compositional aggregation: the system I/O-IMC and CTMC."""

    ioimc: IOIMC
    ctmc: CTMC
    statistics: CompositionStatistics
    #: The quotient cache the run used (``None`` when caching was off).
    cache: QuotientCache | None = None


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
        string ``"auto"`` plans the order with
        :func:`repro.planner.plan_order`, a walk of the fault tree.
    reduction:
        Bisimulation variant applied to every intermediate model:
        ``"strong"`` (default; always sound, preserves every measure),
        ``"branching"`` (inert-tau-abstracting — the equivalence CADP's
        minimisation uses in the paper's tool chain), ``"weak"``
        (tau-abstracting, the coarsest of the three) or ``"none"``.
    cache:
        Isomorphism-aware memoisation policy: ``"on"`` (a fresh
        :class:`~repro.composer.cache.QuotientCache`), ``"off"``/``None``
        (default, no memoisation) or an existing cache instance to share
        hits across several runs.  Replicated subtrees are composed and
        reduced once; further copies are rebased from the cache via their
        canonical renaming witness, reproducing the uncached pipeline's
        results exactly (see ``docs/caching.md``).
    state_budget:
        Hard ceiling on any step's *pre-reduction* product size (the
        states it builds).
        A step that exceeds it raises
        :class:`~repro.errors.StateBudgetError` (a
        :class:`~repro.errors.CompositionError`) instead of consuming
        unbounded memory — the sweep driver's per-point isolation turns
        that into an error row.  Checked identically on cache hits (from
        the entry's recorded pre-reduction size) and on re-gathered steps.
        ``None`` (default) disables the check.
    """

    def __init__(
        self,
        translated: TranslatedModel,
        *,
        order: CompositionOrder | str | None = None,
        reduction: str = "strong",
        cache: QuotientCache | str | None = None,
        state_budget: int | None = None,
    ) -> None:
        if reduction not in REDUCTION_MODES:
            raise CompositionError(
                f"unknown reduction {reduction!r} (expected one of {REDUCTION_MODES})"
            )
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
        self.reduction = reduction
        #: The resolved quotient cache (``None`` when caching is off).  The
        #: same instance survives re-runs of :meth:`compose`, so repeated
        #: pipelines (availability + no-repair reliability, growth sweeps)
        #: compound their hits.
        self.cache: QuotientCache | None = resolve_cache(cache)
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
            cache="on" if self.cache is not None else "off",
            blocks=len(self.translated.blocks),
        ) as run_span:
            order = self._resolve_order()
            self._composed_blocks = set()
            # Fresh statistics per run: compose() is re-runnable and must not
            # accumulate steps/timings across invocations.  (The quotient
            # cache, in contrast, deliberately survives re-runs.)
            self.statistics = CompositionStatistics()
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
            ctmc = lump(extract_ctmc(system)).quotient
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
                cache=self.cache,
            )

    def _resolve_order(self) -> CompositionOrder:
        """The order to compose in: explicit, planned (``"auto"``) or greedy."""
        if self.order is None:
            return self.default_order()
        if isinstance(self.order, str):  # validated to be "auto" in __init__
            from ..planner import plan_order  # late import: planner uses composer

            return plan_order(self.translated)
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
            # (not the global composed-block tally).
            composite = composite.renamed(f"composite[{len(blocks)} blocks]")
        return composite, blocks, fingerprint

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
            key = cache.result_key(plan, reduction=self.reduction)
            entry = cache.get(key)

        if entry is not None:
            # The budget applies to the *pre-reduction* product a cold run
            # would have built — the entry recorded its size, so a capped
            # run behaves identically with the cache on or off.
            self._check_budget(description, entry.states_before)
            # Cache hit: rebase the stored quotient onto this subtree's
            # concrete signal names, and name its states after this step's
            # operands; no product, no refinement.
            rename = {
                old: new for old, new in zip(entry.slots, plan.slots) if old != new
            }
            if rename:
                composite = rebase_actions(entry.automaton, rename, name=description)
            else:
                composite = entry.automaton.renamed(description)
            composite.name_source = rebind(
                composite.name_source, left.name_source, right.name_source
            )
            # Net savings: what the original computation cost minus what
            # serving the hit just cost.  ``QuotientCache.saved_seconds``
            # accumulates exactly these per-hit amounts, so the lifetime
            # counter of a shared cache equals the sum of the per-run
            # ``cache_saved_seconds`` — the two reports cannot drift apart.
            serve_seconds = time.perf_counter() - compose_started
            saved_seconds = max(entry.cost_seconds - serve_seconds, 0.0)
            cache.record_hit(saved_seconds)
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
        if plan is not None and cache.store(
            key,
            plan,
            composite,
            states_before=states_before,
            transitions_before=transitions_before,
            compose_seconds=compose_seconds,
            reduce_seconds=reduce_seconds,
        ):
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
        key = structure_key(left, right, hidable)
        skeleton = cache.skeleton(key)
        regathered = skeleton is not None
        if regathered:
            self._check_budget(description, skeleton.states_before)
            cache.record_regather()
        elif cache.sighted_before(key):
            skeleton = StepSkeleton.probe(
                left,
                right,
                lambda l, r: self._build_prefix(l, r, hidable, description),
            )
            cache.store_skeleton(key, skeleton)
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
        """Enforce the pre-reduction state ceiling on one step (only live
        when ``state_budget`` is set)."""
        budget = self.state_budget
        if budget is not None and states > budget:
            raise StateBudgetError(
                f"step {description!r}: intermediate product of {states} "
                f"states exceeds the state budget of {budget}"
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
        """Vanishing-chain elimination and reachability.

        Like the product and hiding, this only selects and copies edges and
        never reads a rate, which is what lets a step skeleton stand in for
        all three.
        """
        return eliminate_vanishing_chains(automaton).restrict_to_reachable()

    def _minimise(self, automaton: IOIMC) -> IOIMC:
        """Bisimulation minimisation under the configured reduction."""
        if self.reduction == "strong":
            automaton = minimize_strong(automaton).quotient
        elif self.reduction == "weak":
            automaton = minimize_weak(automaton).quotient
        elif self.reduction == "branching":
            automaton = minimize_branching(automaton).quotient
        return automaton


def require_serial(jobs: int) -> None:
    """Reject any ``jobs`` other than 1: the composer is one serial fold.

    Subtree parallelism was removed (``BENCH_jobs.json`` records why), but
    the benchmark harness in ``perfbench/`` still passes ``jobs`` as 1 to
    the DDS and RCS evaluator builders and to ``SweepConfig``, so those
    three keep the parameter and call this guard.
    """
    if jobs != 1:
        raise CompositionError(
            f"jobs must be 1, got {jobs!r}: subtree parallelism was removed "
            "and the composer is serial"
        )


def compose_model(
    translated: TranslatedModel,
    *,
    order: CompositionOrder | str | None = None,
    reduction: str = "strong",
    cache: QuotientCache | str | None = None,
    state_budget: int | None = None,
) -> ComposedSystem:
    """One-call wrapper around :class:`Composer`.

    Accepts the same keyword arguments (see the :class:`Composer` docstring
    for ``order`` — ``"auto"`` runs the order planner — ``reduction``, the
    quotient cache ``cache`` and the per-step ceiling ``state_budget``) and
    returns the fully composed
    :class:`ComposedSystem` with its I/O-IMC, CTMC and per-step statistics.
    """
    composer = Composer(
        translated,
        order=order,
        reduction=reduction,
        cache=cache,
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
    "require_serial",
]
