"""Tests for the compositional-aggregation pipeline and the evaluators."""

import math

import pytest

from repro import quickstart_model
from repro.analysis import ArcadeEvaluator, ModularEvaluator
from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    down,
    spare_group,
)
from repro.arcade.expressions import Literal, Or
from repro.arcade.semantics import translate_model
from repro.composer import Composer, compose_model, hierarchical_order
from repro.errors import CompositionError
from repro.casestudies.workloads import (
    redundant_array_model,
    series_of_parallel_groups,
    series_of_parallel_model,
)


def single_machine_model(failure=0.01, repair=1.0) -> ArcadeModel:
    model = ArcadeModel(name="single")
    model.add_component(
        BasicComponent("m", time_to_failures=__import__("repro").Exponential(failure),
                       time_to_repairs=__import__("repro").Exponential(repair))
    )
    model.add_repair_unit(RepairUnit("m_rep", ["m"], RepairStrategy.DEDICATED))
    model.set_system_down(down("m"))
    return model


class TestComposerPipeline:
    def test_single_machine_availability(self):
        evaluator = ArcadeEvaluator(single_machine_model(0.01, 1.0))
        assert evaluator.availability() == pytest.approx(1.0 / 1.01, rel=1e-9)

    def test_single_machine_mttf(self):
        evaluator = ArcadeEvaluator(single_machine_model(0.01, 1.0))
        assert evaluator.mean_time_to_failure() == pytest.approx(100.0, rel=1e-9)

    def test_quickstart_matches_closed_form(self):
        evaluator = ArcadeEvaluator(quickstart_model())
        unavailability = (0.0005 / 1.0005) ** 2
        assert evaluator.availability() == pytest.approx(1 - unavailability, rel=1e-9)
        p = math.exp(-1000.0 / 2000.0)
        assert evaluator.reliability(1000.0) == pytest.approx(1 - (1 - p) ** 2, rel=1e-6)

    def test_statistics_recorded(self):
        evaluator = ArcadeEvaluator(quickstart_model())
        evaluator.availability()
        statistics = evaluator.composed.statistics
        assert statistics.largest_intermediate_states > 0
        assert len(statistics.steps) >= 4

    def test_statistics_record_wall_clock(self):
        evaluator = ArcadeEvaluator(quickstart_model())
        evaluator.availability()
        statistics = evaluator.composed.statistics
        assert statistics.total_compose_seconds > 0.0
        assert statistics.total_reduce_seconds > 0.0
        assert statistics.total_seconds == pytest.approx(
            statistics.total_compose_seconds + statistics.total_reduce_seconds
        )
        for step in statistics.steps:
            assert step.compose_seconds >= 0.0
            assert step.reduce_seconds >= 0.0

    def test_recomposing_does_not_accumulate_statistics(self):
        composer = Composer(translate_model(quickstart_model()))
        first = composer.compose()
        steps_first = len(first.statistics.steps)
        second = composer.compose()
        assert len(second.statistics.steps) == steps_first
        assert second.statistics.final_reduce_seconds <= (
            first.statistics.final_reduce_seconds + second.statistics.total_seconds
        )

    def test_reduction_none_gives_same_measures(self):
        baseline = ArcadeEvaluator(quickstart_model(), reduction="strong")
        unreduced = ArcadeEvaluator(quickstart_model(), reduction="none")
        assert baseline.availability() == pytest.approx(unreduced.availability(), rel=1e-9)
        assert unreduced.ctmc.num_states >= baseline.ctmc.num_states

    def test_weak_reduction_gives_same_measures(self):
        baseline = ArcadeEvaluator(quickstart_model(), reduction="strong")
        weak = ArcadeEvaluator(quickstart_model(), reduction="weak")
        assert weak.availability() == pytest.approx(baseline.availability(), rel=1e-7)

    def test_explicit_order(self):
        model = quickstart_model()
        translated = translate_model(model)
        order = [["proc_a", "proc_a.rep"], ["proc_b", "proc_b.rep"], "_sys"]
        system = compose_model(translated, order=order)
        from repro.ctmc import steady_state_availability

        assert steady_state_availability(system.ctmc) == pytest.approx(
            1 - (0.0005 / 1.0005) ** 2, rel=1e-9
        )

    def test_order_must_cover_all_blocks(self):
        translated = translate_model(quickstart_model())
        with pytest.raises(CompositionError):
            compose_model(translated, order=["proc_a", "proc_a.rep"])

    def test_duplicate_block_in_order_rejected(self):
        translated = translate_model(quickstart_model())
        with pytest.raises(CompositionError):
            compose_model(translated, order=["proc_a", "proc_a", "proc_b"])

    def test_unknown_reduction_rejected(self):
        translated = translate_model(quickstart_model())
        with pytest.raises(CompositionError):
            Composer(translated, reduction="magic")

    def test_default_order_heuristic_works(self):
        model = series_of_parallel_model(2, 2)
        evaluator = ArcadeEvaluator(model)
        availability = evaluator.availability()
        # Closed-form: each stage is a 2-machine parallel system with a shared
        # FCFS repairman; stages are independent.
        lam, mu = 1e-3, 0.5
        pi2 = 1.0 / (1.0 + mu / lam + (mu / lam) * (mu / (2 * lam)))
        stage_unavailability = pi2
        expected = (1 - stage_unavailability) ** 2
        assert availability == pytest.approx(expected, rel=1e-6)


class TestHierarchicalOrder:
    def test_groups_must_cover_blocks(self):
        translated = translate_model(series_of_parallel_model(2, 2))
        with pytest.raises(CompositionError):
            hierarchical_order(translated, [["s1_r1", "s1_r2", "stage_1_rep"]])

    def test_gates_scheduled_automatically(self):
        model = series_of_parallel_model(3, 2)
        translated = translate_model(model)
        order = hierarchical_order(translated, series_of_parallel_groups(3, 2))
        flat = _flatten(order)
        assert set(flat) == set(translated.blocks)

    def test_gate_in_groups_rejected(self):
        translated = translate_model(series_of_parallel_model(2, 2))
        groups = series_of_parallel_groups(2, 2)
        groups[0].append("_sys")
        with pytest.raises(CompositionError):
            hierarchical_order(translated, groups)

    def test_hierarchical_order_matches_default(self):
        # A 2x2 system exercises the same ordering logic as larger instances
        # (test_gates_scheduled_automatically covers the 3-stage gate tree).
        model = series_of_parallel_model(2, 2)
        translated = translate_model(model)
        order = hierarchical_order(translated, series_of_parallel_groups(2, 2))
        hierarchical = compose_model(translated, order=order)
        translated2 = translate_model(series_of_parallel_model(2, 2))
        default = compose_model(translated2)
        from repro.ctmc import steady_state_availability

        assert steady_state_availability(hierarchical.ctmc) == pytest.approx(
            steady_state_availability(default.ctmc), rel=1e-9
        )


class TestEvaluatorMeasures:
    def test_reliability_with_and_without_repair_differ(self):
        evaluator = ArcadeEvaluator(quickstart_model())
        without = evaluator.reliability(2000.0, assume_no_repair=True)
        with_repair = evaluator.reliability(2000.0, assume_no_repair=False)
        assert with_repair > without

    def test_report_bundle(self):
        evaluator = ArcadeEvaluator(quickstart_model())
        report = evaluator.report(mission_time=1000.0)
        assert report.availability == pytest.approx(evaluator.availability())
        assert report.reliability == pytest.approx(evaluator.reliability(1000.0))
        assert report.ctmc_states == evaluator.ctmc.num_states

    def test_shared_repair_is_no_better_than_dedicated(self):
        """One FCFS repairman for a whole array cannot beat one per component."""
        shared = ArcadeEvaluator(redundant_array_model(3, 3, shared_repair=True))
        dedicated = ArcadeEvaluator(redundant_array_model(3, 3, shared_repair=False))
        assert dedicated.availability() >= shared.availability()

    def test_spare_with_smu_pipeline(self):
        model = ArcadeModel(name="spared")
        from repro import Exponential

        model.add_component(
            BasicComponent("p", Exponential(0.01), time_to_repairs=Exponential(1.0))
        )
        model.add_component(
            BasicComponent(
                "s",
                [Exponential(0.01), Exponential(0.01)],
                operational_modes=[spare_group()],
                time_to_repairs=Exponential(1.0),
            )
        )
        model.add_spare_unit(SpareManagementUnit("smu", "p", ["s"]))
        model.add_repair_unit(RepairUnit("rep", ["p", "s"], RepairStrategy.FCFS))
        model.set_system_down(down("p") & down("s"))
        evaluator = ArcadeEvaluator(model)
        # Both processors fail at the same rate whether active or not, so the
        # system behaves like a 2-unit parallel system with one FCFS repairman.
        lam, mu = 0.01, 1.0
        # Birth-death: states 0,1,2 failed with rates 2lam, lam up / mu, mu down.
        p0 = 1.0
        p1 = p0 * 2 * lam / mu
        p2 = p1 * lam / mu
        expected_unavailability = p2 / (p0 + p1 + p2)
        assert evaluator.unavailability() == pytest.approx(expected_unavailability, rel=1e-9)


class TestModularEvaluator:
    def test_matches_full_composition(self):
        """Modular evaluation of independent subsystems is exact."""
        full = ArcadeEvaluator(series_of_parallel_model(2, 2))
        stage_one = redundant_array_model(2, 2, failure_rate=1e-3, repair_rate=0.5, name="stage1")
        stage_two = redundant_array_model(2, 2, failure_rate=1e-3, repair_rate=0.5, name="stage2")
        modular = ModularEvaluator(
            {"stage1": stage_one, "stage2": stage_two},
            Or([Literal("stage1", None), Literal("stage2", None)]),
        )
        assert modular.availability() == pytest.approx(full.availability(), rel=1e-9)
        assert modular.unreliability(100.0) == pytest.approx(
            full.unreliability(100.0, assume_no_repair=False), rel=1e-6
        )

    def test_overlapping_subsystems_rejected(self):
        from repro.errors import ModelError

        stage = redundant_array_model(2, 2, name="stage1")
        with pytest.raises(ModelError):
            ModularEvaluator(
                {"a": stage, "b": stage},
                Or([Literal("a", None), Literal("b", None)]),
            )

    def test_subsystem_results(self):
        stage_one = redundant_array_model(2, 2, name="stage1")
        stage_two = redundant_array_model(3, 2, name="stage2")
        modular = ModularEvaluator(
            {"one": stage_one, "two": stage_two},
            Or([Literal("one", None), Literal("two", None)]),
        )
        results = modular.subsystem_results(mission_time=10.0)
        assert {result.name for result in results} == {"one", "two"}
        assert all(result.ctmc_states > 0 for result in results)


def _flatten(order) -> list[str]:
    flat: list[str] = []
    for entry in order:
        if isinstance(entry, str):
            flat.append(entry)
        else:
            flat.extend(_flatten(entry))
    return flat
