"""Tests of the composition-order planner (:mod:`repro.planner`).

Three layers:

* **property tests** — every planned order is a valid nested permutation
  (each block exactly once) with gates legally scheduled (every non-gate
  block a gate observes is composed before the gate), across the case
  studies and the differential generator families;
* **determinism** — planning one model twice gives the same order;
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
from repro.planner import CostModel, affinity_groups, plan_order


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
            (name, translated, plan_order(translated))
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
    def test_planning_twice_gives_the_same_order(self):
        translated = translate_model(build_pump_subsystem())
        order_a, report_a = plan_order(translated)
        order_b, report_b = plan_order(translated)
        assert order_a == order_b
        assert report_a.predicted_peak_states == report_b.predicted_peak_states

    def test_plan_report_reset_when_rerun_without_auto(self):
        translated = translate_model(random_arcade_model(1))
        composer = Composer(translated, order="auto")
        assert composer.compose().plan_report is not None
        composer.order = None
        assert composer.compose().plan_report is None

    def test_evaluator_plans_with_the_default_budget_and_seed(self):
        # The evaluator's plan is plan_order's, with its fixed budget and seed.
        model = random_arcade_model(1)
        evaluator = ArcadeEvaluator(model, order="auto")
        report = evaluator.composed.plan_report
        _, expected = plan_order(translate_model(model))
        assert report is not None
        assert report.predicted_peak_states == expected.predicted_peak_states
        assert report.explored_candidates == expected.explored_candidates


class TestCostModel:
    def test_estimate_order_matches_composer_step_count(self):
        translated = translate_model(build_pump_subsystem())
        order, _ = plan_order(translated)
        state = CostModel(translated).estimate_order(order)
        composer = Composer(translated, order=order)
        composer.compose()
        assert state.steps == len(composer.statistics.steps)


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
    @pytest.mark.parametrize("cache", ["on", "off"])
    def test_rcs_pump_auto_beats_hierarchical_peak(self, cache):
        """On the pump subsystem the planner beats the hand-written order,
        with the quotient cache on or off."""
        evaluator = ArcadeEvaluator(build_pump_subsystem(), order="auto", cache=cache)
        evaluator.unavailability()
        peak = evaluator.composed.statistics.largest_intermediate_states
        # The hand-written hierarchical order peaks at 9,504 built states
        # (the fused maximal-progress cut); the planner's order stays below.
        assert peak <= 9_504


class TestAutoIgnoresTheCache:
    """``order="auto"`` plans from the model alone: turning the quotient
    cache on changes neither the order nor any step's sizes."""

    @pytest.mark.parametrize(
        "build",
        [
            build_pump_subsystem,
            lambda: build_dds_model(
                DDSParameters(num_clusters=1, num_controller_sets=1)
            ),
        ],
        ids=["rcs_pumps", "dds_1x1"],
    )
    def test_same_order_and_trajectory_with_cache_on_and_off(self, build):
        translated = translate_model(build())
        runs = {}
        for cache in ("on", "off"):
            composer = Composer(translated, order="auto", cache=cache)
            system = composer.compose()
            runs[cache] = (
                flatten_order(composer._resolve_order()),
                [
                    (step.states_before_reduction, step.states_after_reduction)
                    for step in system.statistics.steps
                ],
            )
        assert runs["on"] == runs["off"]
