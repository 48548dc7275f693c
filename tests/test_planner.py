"""Tests of the composition-order planner (:mod:`repro.planner`).

Three layers:

* **property tests** — every planned order is a valid nested permutation
  (each block exactly once) with gates legally scheduled (every block a
  gate observes, gates included, is composed before the gate), across the
  case studies and the differential generator families;
* **determinism** — planning one model twice gives the same order;
* **end-to-end** — ``order="auto"`` reproduces the hierarchical goldens'
  measures on DDS and RCS and the modular evaluator's on the scaled DDS,
  and the planned order's *measured* peak intermediate size beats the
  greedy ``default_order``'s (the whole point of the subsystem) and
  matches the figures ``docs/ordering.md`` reports.  The heavier
  end-to-end runs are marked ``slow``.
"""

import time

import pytest

from differential.generators import (
    random_arcade_model,
    random_erlang_model,
    random_fdep_model,
    random_priority_model,
)
from repro.analysis import ArcadeEvaluator
from repro.arcade.semantics import translate_model
from repro.casestudies.dds import (
    MISSION_TIME_HOURS,
    DDSParameters,
    build_dds_evaluator,
    build_dds_model,
    build_dds_modular_evaluator,
)
from repro.casestudies.rcs import build_heat_exchange_subsystem, build_pump_subsystem
from repro.composer import Composer, GateScheduler, flatten_order
from repro.planner import affinity_groups, plan_order
from repro.telemetry import MemorySink, Telemetry


def _translated_corpus():
    """Models the property tests sweep: case studies + one per random family."""
    return [
        ("dds_2_clusters", translate_model(build_dds_model(DDSParameters(num_clusters=2)))),
        ("rcs_pumps", translate_model(build_pump_subsystem())),
        ("rcs_heat", translate_model(build_heat_exchange_subsystem())),
        ("random_base", translate_model(random_arcade_model(3))),
        ("random_erlang", translate_model(random_erlang_model(4))),
        # _sys, _sys.1 and _sys.2 all observe {c0, c1}: equal leaf sets.
        ("random_erlang_6", translate_model(random_erlang_model(6))),
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
        for name, translated, order in planned:
            flat = flatten_order(order)
            assert sorted(flat) == sorted(translated.blocks), name
            assert len(flat) == len(set(flat)), f"{name}: duplicated block"

    def test_gates_scheduled_after_their_leaves(self, planned):
        """Every gate is composed only after all blocks it observes."""
        for name, translated, order in planned:
            scheduler = GateScheduler(translated)
            position = {block: i for i, block in enumerate(flatten_order(order))}
            for gate in scheduler.gate_names:
                for leaf in scheduler.leaves_of(gate):
                    assert position[leaf] < position[gate], (
                        f"{name}: gate {gate} composed before its leaf {leaf}"
                    )

    def test_gates_scheduled_after_observed_gates(self, planned):
        """Every gate is composed after each gate it observes, also when
        both observe the same leaves."""
        for name, translated, order in planned:
            scheduler = GateScheduler(translated)
            position = {block: i for i, block in enumerate(flatten_order(order))}
            for gate in scheduler.gate_names:
                for observed in scheduler.direct_dependencies(gate) & scheduler.gate_names:
                    assert position[observed] < position[gate], (
                        f"{name}: gate {gate} composed before {observed}, which it observes"
                    )

    def test_affinity_groups_partition_the_leaves(self, planned):
        """Affinity groups cover every non-gate block exactly once."""
        for name, translated, _ in planned:
            groups = affinity_groups(translated)
            flat = [block for group in groups for block in group]
            gate_names = set(translated.gates)
            non_gates = [b for b in translated.blocks if b not in gate_names]
            assert sorted(flat) == sorted(non_gates), name

    def test_span_records_groups_and_steps(self):
        translated = translate_model(build_pump_subsystem())
        telemetry = Telemetry(MemorySink())
        with telemetry.activate():
            order = plan_order(translated)
        (event,) = [
            event for event in telemetry.export_events() if event["name"] == "plan.order"
        ]
        assert event["attrs"]["groups"] == len(affinity_groups(translated))
        assert event["attrs"]["steps"] == len(flatten_order(order)) - 1


class TestDeterminism:
    def test_planning_twice_gives_the_same_order(self):
        translated = translate_model(build_pump_subsystem())
        assert plan_order(translated) == plan_order(translated)

    def test_evaluator_plans_with_the_default_budget_and_seed(self):
        """The evaluator's ``order="auto"`` composes exactly plan_order's
        order: the same steps with the same sizes."""

        def trajectory(system):
            return [
                (
                    step.description,
                    step.states_before_reduction,
                    step.states_after_reduction,
                )
                for step in system.statistics.steps
            ]

        model = random_arcade_model(1)
        evaluator = ArcadeEvaluator(model, order="auto")
        translated = translate_model(model)
        expected = Composer(translated, order=plan_order(translated)).compose()
        assert trajectory(evaluator.composed) == trajectory(expected)


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
        """order="auto" reproduces the DDS goldens' availability and
        R(5 weeks) (the no-repair pipeline) to 1e-12, under strong and
        branching reduction, with the cache on and off, at a peak of 9,272
        states against the hand-written order's 50,375."""
        availability = dds_full_evaluator.availability()
        reliability = dds_full_evaluator.reliability(MISSION_TIME_HOURS)
        for reduction in ("strong", "branching"):
            for cache in ("on", "off"):
                case = f"{reduction}, cache {cache}"
                evaluator = build_dds_evaluator(
                    order="auto", reduction=reduction, cache=cache
                )
                assert evaluator.availability() == pytest.approx(
                    availability, abs=1e-12
                ), case
                assert evaluator.reliability(MISSION_TIME_HOURS) == pytest.approx(
                    reliability, abs=1e-12
                ), case
                assert evaluator.ctmc.num_states == 2_100, case
                statistics = evaluator.composed.statistics
                assert statistics.largest_intermediate_states == 9_272, case
        # Planning stays a small fraction of the pipeline.
        started = time.perf_counter()
        plan_order(evaluator.translated)
        assert time.perf_counter() - started < max(0.1 * statistics.total_seconds, 1.0)

    @pytest.mark.slow
    def test_rcs_auto_matches_hierarchical_golden(self, rcs_modular_evaluator):
        """order="auto" reproduces both RCS subsystem measures (1e-12 rel),
        with the cache on and off."""
        for build, name in (
            (build_pump_subsystem, "pumps"),
            (build_heat_exchange_subsystem, "heat_exchange"),
        ):
            reference = rcs_modular_evaluator.evaluators[name]
            for cache in ("on", "off"):
                evaluator = ArcadeEvaluator(build(), order="auto", cache=cache)
                assert evaluator.unavailability() == pytest.approx(
                    reference.unavailability(), rel=1e-12, abs=1e-15
                ), (name, cache)
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
        # (the fused maximal-progress cut); the planner's order reaches 7,104.
        assert peak <= 7_104

    @pytest.mark.parametrize("cache", ["on", "off"])
    @pytest.mark.parametrize(
        ("build", "expected_peak"),
        [
            (
                lambda: build_dds_model(
                    DDSParameters(num_clusters=1, num_controller_sets=1)
                ),
                224,
            ),
            (build_heat_exchange_subsystem, 194),
        ],
        ids=["dds_1x1", "rcs_heat"],
    )
    def test_auto_peak_matches_the_documented_figure(self, build, expected_peak, cache):
        """The fast rows of the docs/ordering.md results table."""
        system = Composer(translate_model(build()), order="auto", cache=cache).compose()
        assert system.statistics.largest_intermediate_states == expected_peak


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


@pytest.mark.slow
class TestScaledDDSCrossCheck:
    """``order="auto"`` on the scaled DDS agrees with the independent
    modular evaluator, which composes each subsystem on its own."""

    @pytest.mark.parametrize("reduction", ["strong", "branching"])
    @pytest.mark.parametrize("clusters", [2, 4, 8])
    def test_auto_matches_the_modular_evaluator(self, clusters, reduction):
        parameters = DDSParameters(num_clusters=clusters)
        evaluator = build_dds_evaluator(
            parameters, order="auto", reduction=reduction, cache="on"
        )
        modular = build_dds_modular_evaluator(parameters, reduction=reduction)
        assert evaluator.availability() == pytest.approx(
            modular.availability(), abs=1e-12
        )
        # ModularEvaluator defaults to assume_no_repair=False, unlike
        # ArcadeEvaluator: pass it on both sides.
        assert evaluator.reliability(
            MISSION_TIME_HOURS, assume_no_repair=True
        ) == pytest.approx(
            modular.reliability(MISSION_TIME_HOURS, assume_no_repair=True), rel=1e-11
        )
