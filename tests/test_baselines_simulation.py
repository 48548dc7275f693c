"""Tests for the baselines (GSPN, static fault tree, flat composition) and the simulator."""

import math

import pytest

from repro import quickstart_model
from repro.analysis import ArcadeEvaluator
from repro.arcade.semantics import translate_model
from repro.baselines import StaticFaultTreeAnalyzer, flat_compose
from repro.baselines.gspn import GSPN, build_dds_san_ctmc, DDSNetOptions, to_ctmc
from repro.casestudies.dds import DDSParameters, build_dds_model
from repro.ctmc import steady_state_availability, steady_state_distribution, unreliability
from repro.errors import AnalysisError, ModelError
from repro.simulation import ArcadeSimulator

from model_families import redundant_array_model, series_of_parallel_model


class TestGSPNEngine:
    def build_machine_net(self) -> GSPN:
        net = GSPN("machine")
        net.add_place("up", 1)
        net.add_place("down", 0)
        net.add_timed_transition("fail", 0.1, {"up": 1}, {"down": 1})
        net.add_timed_transition("repair", 2.0, {"down": 1}, {"up": 1})
        return net

    def test_reachability_and_steady_state(self):
        chain = to_ctmc(self.build_machine_net(), lambda m: {"down"} if m["down"] else set())
        assert chain.num_states == 2
        assert steady_state_availability(chain) == pytest.approx(2.0 / 2.1, rel=1e-9)

    def test_immediate_transitions_are_vanishing(self):
        net = GSPN("switch")
        net.add_place("start", 1)
        net.add_place("left", 0)
        net.add_place("right", 0)
        net.add_place("done", 0)
        net.add_timed_transition("go", 1.0, {"start": 1}, {"done": 1})
        net.add_immediate_transition("pick_left", {"done": 1}, {"left": 1}, weight=1.0)
        net.add_immediate_transition("pick_right", {"done": 1}, {"right": 1}, weight=3.0)
        chain = to_ctmc(net)
        distribution = steady_state_distribution(chain)
        # The weighted immediate choice sends 25% of the probability left.
        left_states = [s for s in range(chain.num_states) if "left" in chain.state_name(s)]
        assert sum(distribution[s] for s in left_states) == pytest.approx(0.25, rel=1e-9)

    def test_inhibitor_arcs(self):
        net = GSPN("inhibited")
        net.add_place("tokens", 0)
        net.add_timed_transition("add", 1.0, {}, {"tokens": 1}, inhibitors={"tokens": 2})
        net.add_timed_transition("remove", 1.0, {"tokens": 1}, {})
        chain = to_ctmc(net)
        assert chain.num_states == 3  # 0, 1, 2 tokens

    def test_duplicate_place_rejected(self):
        net = GSPN("dup")
        net.add_place("p")
        with pytest.raises(ModelError):
            net.add_place("p")

    def test_unknown_place_rejected(self):
        net = GSPN("bad")
        with pytest.raises(ModelError):
            net.add_timed_transition("t", 1.0, {"ghost": 1}, {})

    def test_marking_limit(self):
        net = GSPN("unbounded")
        net.add_place("p", 0)
        net.add_timed_transition("grow", 1.0, {}, {"p": 1})
        with pytest.raises(AnalysisError):
            to_ctmc(net, limit=50)


class TestDDSSanBaseline:
    def test_availability_matches_table1(self):
        chain = build_dds_san_ctmc()
        assert chain.num_states == 3780
        assert steady_state_availability(chain) == pytest.approx(0.999997, abs=2e-6)

    def test_cold_spare_reliability_matches_san_column(self):
        """The SAN column of Table 1 (0.425082) comes from a cold spare processor."""
        chain = build_dds_san_ctmc(options=DDSNetOptions(cold_spare=True, with_repair=False))
        reliability = 1.0 - unreliability(chain, 840.0)
        assert reliability == pytest.approx(0.425082, abs=5e-6)

    def test_hot_spare_reliability_matches_arcade_column(self):
        chain = build_dds_san_ctmc(options=DDSNetOptions(cold_spare=False, with_repair=False))
        reliability = 1.0 - unreliability(chain, 840.0)
        assert reliability == pytest.approx(0.402018, abs=5e-6)

    def test_scaled_down_configuration(self):
        parameters = DDSParameters(num_clusters=2)
        chain = build_dds_san_ctmc(parameters)
        assert chain.num_states < 3780


class TestStaticFaultTree:
    def test_dds_reliability_matches_galileo_column(self):
        analyzer = StaticFaultTreeAnalyzer(build_dds_model())
        assert analyzer.reliability(840.0) == pytest.approx(0.402018, abs=5e-6)

    def test_agrees_with_pipeline_on_quickstart(self):
        model = quickstart_model()
        analyzer = StaticFaultTreeAnalyzer(model)
        evaluator = ArcadeEvaluator(model)
        for t in (100.0, 1000.0):
            assert analyzer.reliability(t) == pytest.approx(
                evaluator.reliability(t, assume_no_repair=True), rel=1e-6
            )

    def test_mode_specific_literals(self):
        from repro.arcade import ArcadeModel, BasicComponent, down
        from repro import Exponential

        model = ArcadeModel(name="valve")
        model.add_component(
            BasicComponent(
                "v", Exponential(0.1), failure_mode_probabilities=[0.5, 0.5]
            )
        )
        model.set_system_down(down("v", "m2"))
        analyzer = StaticFaultTreeAnalyzer(model)
        expected = 0.5 * (1 - math.exp(-0.1 * 10.0))
        assert analyzer.unreliability(10.0) == pytest.approx(expected, rel=1e-9)

    def test_rejects_fdep_models(self):
        from model_families import fdep_chain_model

        with pytest.raises(AnalysisError):
            StaticFaultTreeAnalyzer(fdep_chain_model(3))

    def test_shared_component_handled_by_conditioning(self):
        from repro.arcade import ArcadeModel, BasicComponent, down
        from repro.arcade.expressions import And, Or
        from repro import Exponential

        model = ArcadeModel(name="shared")
        for name in ("a", "b", "c"):
            model.add_component(BasicComponent(name, Exponential(0.01)))
        # a appears in both branches.
        model.set_system_down(Or([And([down("a"), down("b")]), And([down("a"), down("c")])]))
        analyzer = StaticFaultTreeAnalyzer(model)
        t = 50.0
        p = 1 - math.exp(-0.01 * t)
        expected = p * (1 - (1 - p) ** 2)
        assert analyzer.unreliability(t) == pytest.approx(expected, rel=1e-9)


class TestFlatBaseline:
    def test_flat_agrees_with_compositional_on_small_model(self):
        model = quickstart_model()
        translated = translate_model(model)
        result = flat_compose(translated, max_states=100_000)
        assert result.completed
        assert steady_state_availability(result.ctmc) == pytest.approx(
            ArcadeEvaluator(quickstart_model()).availability(), rel=1e-9
        )

    def test_flat_exceeds_budget_on_larger_model(self):
        model = series_of_parallel_model(6, 3)
        translated = translate_model(model)
        result = flat_compose(translated, max_states=5_000, build_ctmc=False)
        assert result.exceeded_budget
        assert result.blocks_composed < result.total_blocks


class TestSimulator:
    def test_unavailability_matches_analytic(self):
        model = redundant_array_model(2, 2, failure_rate=0.05, repair_rate=0.5)
        analytic = ArcadeEvaluator(model).unavailability()
        simulator = ArcadeSimulator(model, seed=3)
        estimate = simulator.estimate(horizon=4000.0, runs=60)
        assert estimate.mean_unavailability == pytest.approx(analytic, rel=0.35)

    def test_unreliability_matches_analytic(self):
        model = quickstart_model()
        evaluator = ArcadeEvaluator(model)
        analytic = evaluator.unreliability(2000.0, assume_no_repair=False)
        simulator = ArcadeSimulator(model, seed=5)
        estimate = simulator.estimate(horizon=2000.0, runs=3000)
        assert estimate.unreliability == pytest.approx(analytic, rel=0.5, abs=2e-3)

    def test_spare_activation_simulated(self):
        from repro.casestudies.dds import build_dds_subsystem_models

        subsystems, _ = build_dds_subsystem_models()
        processors = subsystems["processors"]
        simulator = ArcadeSimulator(processors, seed=11)
        estimate = simulator.estimate(horizon=10000.0, runs=40)
        analytic = ArcadeEvaluator(processors).unavailability()
        assert estimate.mean_unavailability == pytest.approx(analytic, rel=1.0, abs=5e-6)

    def test_trace_accounting(self):
        simulator = ArcadeSimulator(quickstart_model(), seed=1)
        trace = simulator.run(horizon=500.0)
        assert trace.down_time + trace.up_time == pytest.approx(500.0, rel=1e-9)
