"""Tests of the composition-order planner (:mod:`repro.planner`).

Three layers:

* **property tests** — every planned order is a valid nested permutation
  (each block exactly once) with gates legally scheduled (every non-gate
  block a gate observes is composed before the gate), across the case
  studies and the differential generator families;
* **determinism** — a fixed ``(model, budget, seed)`` plans the same order;
* **end-to-end** — ``order="auto"`` reproduces the hierarchical goldens'
  measures on DDS and RCS, and the planned order's *measured* peak
  intermediate size beats the greedy ``default_order``'s (the whole point
  of the subsystem).  The heavier end-to-end runs are marked ``slow`` and
  also run in CI's non-blocking planner job.
"""

import pytest

from differential.generators import (
    random_arcade_model,
    random_erlang_model,
    random_fdep_model,
    random_priority_model,
)
from repro.analysis import ArcadeEvaluator
from repro.arcade.semantics import translate_model
from repro.casestudies.dds import DDSParameters, build_dds_model
from repro.casestudies.rcs import build_heat_exchange_subsystem, build_pump_subsystem
from repro.composer import Composer, GateScheduler, flatten_order
from repro.planner import (
    DEFAULT_BUDGET,
    CostModel,
    CostParameters,
    affinity_groups,
    plan_order,
)


def _translated_corpus():
    """Models the property tests sweep: case studies + one per random family."""
    return [
        ("dds_2_clusters", translate_model(build_dds_model(DDSParameters(num_clusters=2)))),
        ("rcs_pumps", translate_model(build_pump_subsystem())),
        ("rcs_heat", translate_model(build_heat_exchange_subsystem())),
        ("random_base", translate_model(random_arcade_model(3))),
        ("random_erlang", translate_model(random_erlang_model(4))),
        ("random_priority", translate_model(random_priority_model(5))),
        ("random_fdep", translate_model(random_fdep_model(6))),
    ]


class TestPlannedOrderProperties:
    @pytest.fixture(scope="class")
    def planned(self):
        return [
            (name, translated, plan_order(translated, seed=0))
            for name, translated in _translated_corpus()
        ]

    def test_every_block_exactly_once(self, planned):
        """The flattened planned order is a permutation of all blocks."""
        for name, translated, (order, _) in planned:
            flat = flatten_order(order)
            assert sorted(flat) == sorted(translated.blocks), name
            assert len(flat) == len(set(flat)), f"{name}: duplicated block"

    def test_gates_scheduled_after_their_leaves(self, planned):
        """Every gate is composed only after all blocks it observes."""
        for name, translated, (order, _) in planned:
            scheduler = GateScheduler(translated)
            position = {block: i for i, block in enumerate(flatten_order(order))}
            for gate in scheduler.gate_names:
                for leaf in scheduler.leaves_of(gate):
                    assert position[leaf] < position[gate], (
                        f"{name}: gate {gate} composed before its leaf {leaf}"
                    )

    def test_affinity_groups_partition_the_leaves(self, planned):
        """Affinity groups cover every non-gate block exactly once."""
        for name, translated, _ in planned:
            groups = affinity_groups(translated)
            flat = [block for group in groups for block in group]
            gate_names = set(translated.gates)
            non_gates = [b for b in translated.blocks if b not in gate_names]
            assert sorted(flat) == sorted(non_gates), name

    def test_report_is_filled_in(self, planned):
        for name, _, (order, report) in planned:
            assert report.predicted_peak_states > 0, name
            assert report.predicted_steps == len(flatten_order(order)) - 1, name
            assert report.explored_candidates > 0, name
            assert report.wall_clock_seconds >= 0, name


class TestDeterminism:
    def test_same_seed_same_order(self):
        translated = translate_model(build_pump_subsystem())
        order_a, report_a = plan_order(translated, seed=7)
        order_b, report_b = plan_order(translated, seed=7)
        assert order_a == order_b
        assert report_a.predicted_peak_states == report_b.predicted_peak_states

    def test_seed_and_budget_are_recorded(self):
        translated = translate_model(random_arcade_model(1))
        _, report = plan_order(translated, budget=64, seed=3)
        assert report.seed == 3
        assert report.budget == 64

    def test_budget_must_be_positive(self):
        translated = translate_model(random_arcade_model(1))
        with pytest.raises(ValueError):
            plan_order(translated, budget=0)

    def test_plan_report_reset_when_rerun_without_auto(self):
        translated = translate_model(random_arcade_model(1))
        composer = Composer(translated, order="auto")
        assert composer.compose().plan_report is not None
        composer.order = None
        assert composer.compose().plan_report is None

    def test_evaluator_plans_with_the_default_budget_and_seed(self):
        evaluator = ArcadeEvaluator(random_arcade_model(1), order="auto")
        report = evaluator.composed.plan_report
        assert report is not None
        assert report.budget == DEFAULT_BUDGET
        assert report.seed == 0


class TestCostModel:
    def test_estimate_order_matches_composer_step_count(self):
        translated = translate_model(build_pump_subsystem())
        order, _ = plan_order(translated, seed=0)
        state = CostModel(translated).estimate_order(order)
        composer = Composer(translated, order=order)
        composer.compose()
        assert state.steps == len(composer.statistics.steps)

    def test_custom_parameters_round_trip(self):
        translated = translate_model(random_arcade_model(1))
        model = CostModel(translated, CostParameters(0.5, 0.5))
        assert model.parameters.sync_damping == 0.5
        order, report = plan_order(translated, cost_model=model)
        assert sorted(flatten_order(order)) == sorted(translated.blocks)
        assert report.predicted_peak_states > 0


class TestPlannedBeatsGreedy:
    def test_planned_peak_not_worse_than_greedy_small_dds(self):
        """Measured peak of the planned order <= greedy's (small DDS)."""
        parameters = DDSParameters(num_clusters=1, num_controller_sets=1)
        translated = translate_model(build_dds_model(parameters))
        auto = Composer(translated, order="auto")
        auto_system = auto.compose()
        greedy = Composer(translated)
        greedy_system = greedy.compose()
        auto_peak = auto_system.statistics.largest_intermediate_states
        greedy_peak = greedy_system.statistics.largest_intermediate_states
        assert auto_peak <= greedy_peak
        # Identical final chain regardless of order.
        assert auto_system.ctmc.num_states == greedy_system.ctmc.num_states

    @pytest.mark.slow
    def test_planned_peak_not_worse_than_greedy_one_cluster_dds(self):
        """Same property at a size where greedy visibly explodes (~13s)."""
        parameters = DDSParameters(num_clusters=1)
        translated = translate_model(build_dds_model(parameters))
        auto = Composer(translated, order="auto")
        auto_peak = auto.compose().statistics.largest_intermediate_states
        greedy = Composer(translated)
        greedy_peak = greedy.compose().statistics.largest_intermediate_states
        assert auto_peak <= greedy_peak
        # The gap is not marginal: the planner's whole reason to exist.
        assert auto_peak * 10 < greedy_peak


class TestAutoEndToEnd:
    @pytest.mark.slow
    def test_dds_auto_matches_hierarchical_golden(self, dds_full_evaluator):
        """order="auto" reproduces the DDS goldens' measures (1e-9)."""
        evaluator = ArcadeEvaluator(build_dds_model(), order="auto")
        assert evaluator.availability() == pytest.approx(
            dds_full_evaluator.availability(), abs=1e-9
        )
        assert evaluator.ctmc.num_states == dds_full_evaluator.ctmc.num_states
        report = evaluator.composed.plan_report
        assert report is not None
        # The planner's own search stays a small fraction of the pipeline.
        statistics = evaluator.composed.statistics
        assert report.wall_clock_seconds < max(0.1 * statistics.total_seconds, 1.0)

    @pytest.mark.slow
    def test_rcs_auto_matches_hierarchical_golden(self, rcs_modular_evaluator):
        """order="auto" reproduces both RCS subsystem measures (1e-9 rel)."""
        for build, name in (
            (build_pump_subsystem, "pumps"),
            (build_heat_exchange_subsystem, "heat_exchange"),
        ):
            evaluator = ArcadeEvaluator(build(), order="auto")
            reference = rcs_modular_evaluator.evaluators[name]
            assert evaluator.unavailability() == pytest.approx(
                reference.unavailability(), rel=1e-9, abs=1e-15
            ), name
            assert evaluator.ctmc.num_states == reference.ctmc.num_states, name

    @pytest.mark.slow
    def test_rcs_pump_auto_beats_hierarchical_peak(self):
        """On the pump subsystem the planner beats the hand-written order."""
        evaluator = ArcadeEvaluator(build_pump_subsystem(), order="auto")
        evaluator.unavailability()
        peak = evaluator.composed.statistics.largest_intermediate_states
        # Hand-written hierarchical order peaks at 16,128 (pinned history);
        # the planner's order stays below it.
        assert peak <= 16_128


class TestWarmCachePricing:
    """Cache-aware pricing must consult the cache's *stored keys*.

    A plain cache-aware search discounts only the 2nd..N-th isomorphic copy
    of a group: it assumes an empty cache.  When planning against a
    pre-warmed shared cache the first copy is served too, so
    :func:`warm_fold_keys` detects fully stored group folds and the scoring
    discounts them on first use as well.
    """

    def _warm_setup(self):
        from repro.composer import compose_model
        from repro.planner.search import order_group_by_cost

        translated = translate_model(build_dds_model(DDSParameters(num_clusters=2)))
        warmed = compose_model(translated, order="auto", cache="on")
        model = CostModel(translated)
        scheduler = GateScheduler(translated)
        groups = [
            order_group_by_cost(model, group)
            for group in affinity_groups(translated)
        ]
        return translated, warmed.cache, model, scheduler, groups

    def test_warm_folds_detected_on_a_warmed_cache(self):
        from repro.planner.search import warm_fold_keys

        translated, cache, model, scheduler, groups = self._warm_setup()
        warm = warm_fold_keys(
            translated, scheduler, model, groups, cache,
            reduction="strong",
        )
        assert warm, "a fully warmed cache must mark some group folds warm"
        # An empty cache (or none) marks nothing.
        from repro.composer import QuotientCache

        for empty in (QuotientCache(), None):
            assert warm_fold_keys(
                translated, scheduler, model, groups, empty,
                reduction="strong",
            ) == frozenset()

    def test_warm_folds_lower_the_cache_aware_score(self):
        from repro.planner.search import score_groups, warm_fold_keys

        translated, cache, model, scheduler, groups = self._warm_setup()
        warm = warm_fold_keys(
            translated, scheduler, model, groups, cache,
            reduction="strong",
        )
        chain = tuple(tuple(group) for group in groups)
        cold = score_groups(model, scheduler, chain, cache_aware=True)
        warmed = score_groups(
            model, scheduler, chain, cache_aware=True, warm_folds=warm
        )
        assert warmed.total < cold.total

    def test_mismatched_reduction_mode_stays_cold(self):
        """Stored keys are mode-specific: a cache warmed under strong
        reduction prices nothing for a branching-reduction plan."""
        from repro.planner.search import warm_fold_keys

        translated, cache, model, scheduler, groups = self._warm_setup()
        assert warm_fold_keys(
            translated, scheduler, model, groups, cache,
            reduction="branching",
        ) == frozenset()


class TestPairedReplicatedMembers:
    def test_pairing_preserves_leaves_and_balances_runs(self):
        from repro.composer import flatten_order as flatten
        from repro.planner.search import pair_replicated_members

        translated = translate_model(build_dds_model(DDSParameters(num_clusters=2)))
        model = CostModel(translated)
        for group in affinity_groups(translated):
            paired = pair_replicated_members(model, group)
            assert flatten(paired) == list(group)
        # A disk cluster: four isomorphic disks pair into a balanced tree.
        cluster = next(
            group for group in affinity_groups(translated) if "d_1" in group
        )
        paired = pair_replicated_members(model, cluster)
        assert any(not isinstance(entry, str) for entry in paired)

    def test_auto_order_with_cache_contains_nested_pairs(self):
        translated = translate_model(build_dds_model(DDSParameters(num_clusters=2)))
        composer = Composer(translated, order="auto", cache="on")
        order = composer._resolve_order()

        def max_depth(item):
            if isinstance(item, str):
                return 0
            return 1 + max(max_depth(child) for child in item)

        # Balanced pairs add nesting beyond the plain group-chain depth.
        assert max_depth(order) >= 3
