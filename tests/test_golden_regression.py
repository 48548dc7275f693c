"""Golden regression pins for the paper-reproduction numbers.

These values were captured from the seed implementation (commit 41ef2b1,
naive round-based refinement) and must never drift: any performance work on
the composition/reduction engine has to reproduce the *exact* state-space
trajectory of Section 5 and the Table-1 measures.  Sizes are pinned exactly;
measures are pinned to 1e-12 relative — double-precision reproducibility, far
tighter than the paper-comparison tolerances of the ordinary tests.

If one of these tests fails after an engine change, the change altered the
semantics of the pipeline (not just its speed) and must be fixed, not the
pin.

The intermediate sizes are those of the products a composer step actually
builds.  Since the maximal-progress cut was fused into the product, states
reachable only through a cut Markovian edge are no longer built, so the
peaks fell (DDS 90,250 → 50,375 states).  The pre-fusion figures stay
pinned on a run whose composer takes the unfused path
(:func:`product_oracle.use_unfused_composer`), together with bit-equality
of that run's measures with the fused run's.
"""

import pytest

from product_oracle import use_unfused_composer

from repro.casestudies.dds import build_dds_evaluator
from repro.casestudies.dds import MISSION_TIME_HOURS as DDS_MISSION_TIME
from repro.casestudies.rcs import MISSION_TIME_HOURS as RCS_MISSION_TIME
from repro.casestudies.rcs import build_rcs_modular_evaluator
from repro.ctmc import point_availability

#: Captured from the seed's full DDS compositional-aggregation run; the
#: intermediate sizes from the first run with the fused maximal-progress
#: product (the no-repair pipeline is the one R(5 weeks) runs).
DDS_GOLDEN = {
    "ctmc_states": 2100,
    "ctmc_transitions": 15120,
    "largest_intermediate_states": 50375,
    "largest_intermediate_transitions": 216625,
    "no_repair_largest_intermediate_states": 8588,
    "no_repair_largest_intermediate_transitions": 22660,
    "composition_steps": 56,
    "availability": 0.99999650217143776,
    "reliability_5_weeks": 0.40201757107868796,
}

#: Captured from the first branching-mode DDS run (PR 3, vectorised
#: signature-refinement engine).  Branching bisimulation — the equivalence
#: CADP's minimisation actually applies in the paper's tool chain — must
#: land on the same final CTMC and the same Section-5 trajectory as the
#: strong reduction on this model, to double precision.
DDS_BRANCHING_GOLDEN = {
    "ctmc_states": 2100,
    "ctmc_transitions": 15120,
    "largest_intermediate_states": 50375,
    "largest_intermediate_transitions": 216625,
    "composition_steps": 56,
    "availability": 0.9999965021714378,
    "reliability_5_weeks": 0.40201757107868796,
}

#: Captured from the first branching-mode modular RCS run (PR 3).
RCS_BRANCHING_GOLDEN = {
    "pump_ctmc_states": 1164,
    "pump_ctmc_transitions": 8928,
    "heat_ctmc_states": 72,
    "heat_ctmc_transitions": 384,
    "pump_unavailability": 1.1867998687760919e-08,
    "heat_unavailability": 2.938239864253235e-11,
}

#: Captured from the seed's modular RCS run (Section 5.2.2); the
#: intermediate sizes from the first run with the fused product.
RCS_GOLDEN = {
    "pump_largest_intermediate_states": 9504,
    "pump_largest_intermediate_transitions": 25056,
    "heat_largest_intermediate_states": 194,
    "heat_largest_intermediate_transitions": 506,
    "pump_ctmc_states": 1164,
    "pump_ctmc_transitions": 8928,
    "heat_ctmc_states": 72,
    "heat_ctmc_transitions": 384,
    "pump_unavailability": 1.1867998687760917e-08,
    "heat_unavailability": 2.9382398642532342e-11,
    "unavailability_50h": 5.4007276428791329e-10,
    "unreliability_50h": 4.3824996444802275e-09,
}

#: The full products the composer built before the maximal-progress cut was
#: fused into them (the DDS figures date from the seed).  Pinned on the
#: unfused path.
PRE_FUSION_GOLDEN = {
    "dds_largest_intermediate_states": 90250,
    "dds_largest_intermediate_transitions": 467875,
    "dds_no_repair_largest_intermediate_states": 9908,
    "dds_no_repair_largest_intermediate_transitions": 29774,
    "dds_composition_steps": 56,
    "pump_largest_intermediate_states": 16128,
    "pump_largest_intermediate_transitions": 55296,
    "heat_largest_intermediate_states": 288,
    "heat_largest_intermediate_transitions": 1056,
}


@pytest.mark.slow
class TestDDSGolden:
    """Table 1 / Section 5.1.2 state-space trajectory and measures."""

    def test_final_ctmc_size(self, dds_full_evaluator):
        ctmc = dds_full_evaluator.ctmc
        assert ctmc.num_states == DDS_GOLDEN["ctmc_states"]
        assert ctmc.num_transitions == DDS_GOLDEN["ctmc_transitions"]

    def test_largest_intermediate_model(self, dds_full_evaluator):
        dds_full_evaluator.availability()
        statistics = dds_full_evaluator.composed.statistics
        assert (
            statistics.largest_intermediate_states
            == DDS_GOLDEN["largest_intermediate_states"]
        )
        assert (
            statistics.largest_intermediate_transitions
            == DDS_GOLDEN["largest_intermediate_transitions"]
        )
        assert len(statistics.steps) == DDS_GOLDEN["composition_steps"]

    def test_largest_intermediate_model_without_repair(self, dds_full_evaluator):
        dds_full_evaluator.reliability(DDS_MISSION_TIME)
        statistics = dds_full_evaluator.composed_without_repair.statistics
        assert (
            statistics.largest_intermediate_states
            == DDS_GOLDEN["no_repair_largest_intermediate_states"]
        )
        assert (
            statistics.largest_intermediate_transitions
            == DDS_GOLDEN["no_repair_largest_intermediate_transitions"]
        )

    def test_availability(self, dds_full_evaluator):
        assert dds_full_evaluator.availability() == pytest.approx(
            DDS_GOLDEN["availability"], rel=1e-12
        )

    def test_reliability(self, dds_full_evaluator):
        assert dds_full_evaluator.reliability(DDS_MISSION_TIME) == pytest.approx(
            DDS_GOLDEN["reliability_5_weeks"], rel=1e-12
        )


@pytest.mark.slow
class TestRCSGolden:
    """Section 5.2.2 subsystem sizes and measures."""

    def test_pump_subsystem_ctmc_size(self, rcs_modular_evaluator):
        pumps = rcs_modular_evaluator.evaluators["pumps"]
        assert pumps.ctmc.num_states == RCS_GOLDEN["pump_ctmc_states"]
        assert pumps.ctmc.num_transitions == RCS_GOLDEN["pump_ctmc_transitions"]

    def test_heat_exchange_subsystem_ctmc_size(self, rcs_modular_evaluator):
        heat = rcs_modular_evaluator.evaluators["heat_exchange"]
        assert heat.ctmc.num_states == RCS_GOLDEN["heat_ctmc_states"]
        assert heat.ctmc.num_transitions == RCS_GOLDEN["heat_ctmc_transitions"]

    def test_largest_intermediate_models(self, rcs_modular_evaluator):
        for subsystem, prefix in (("pumps", "pump"), ("heat_exchange", "heat")):
            evaluator = rcs_modular_evaluator.evaluators[subsystem]
            evaluator.unavailability()
            statistics = evaluator.composed.statistics
            assert (
                statistics.largest_intermediate_states,
                statistics.largest_intermediate_transitions,
            ) == (
                RCS_GOLDEN[f"{prefix}_largest_intermediate_states"],
                RCS_GOLDEN[f"{prefix}_largest_intermediate_transitions"],
            )

    def test_subsystem_unavailabilities(self, rcs_modular_evaluator):
        pumps = rcs_modular_evaluator.evaluators["pumps"]
        heat = rcs_modular_evaluator.evaluators["heat_exchange"]
        assert pumps.unavailability() == pytest.approx(
            RCS_GOLDEN["pump_unavailability"], rel=1e-12
        )
        assert heat.unavailability() == pytest.approx(
            RCS_GOLDEN["heat_unavailability"], rel=1e-12
        )

    def test_mission_time_measures(self, rcs_modular_evaluator):
        modular = rcs_modular_evaluator
        unavailability_50h = 1.0 - (
            point_availability(modular.evaluators["pumps"].ctmc, RCS_MISSION_TIME)
            * point_availability(
                modular.evaluators["heat_exchange"].ctmc, RCS_MISSION_TIME
            )
        )
        assert unavailability_50h == pytest.approx(
            RCS_GOLDEN["unavailability_50h"], rel=1e-12
        )
        assert modular.unreliability(RCS_MISSION_TIME) == pytest.approx(
            RCS_GOLDEN["unreliability_50h"], rel=1e-12
        )


@pytest.mark.slow
class TestDDSBranchingGolden:
    """Branching-mode trajectory and measures of the full DDS run."""

    def test_final_ctmc_size(self, dds_branching_evaluator):
        ctmc = dds_branching_evaluator.ctmc
        assert ctmc.num_states == DDS_BRANCHING_GOLDEN["ctmc_states"]
        assert ctmc.num_transitions == DDS_BRANCHING_GOLDEN["ctmc_transitions"]

    def test_state_space_trajectory(self, dds_branching_evaluator):
        dds_branching_evaluator.availability()
        statistics = dds_branching_evaluator.composed.statistics
        assert (
            statistics.largest_intermediate_states
            == DDS_BRANCHING_GOLDEN["largest_intermediate_states"]
        )
        assert (
            statistics.largest_intermediate_transitions
            == DDS_BRANCHING_GOLDEN["largest_intermediate_transitions"]
        )
        assert len(statistics.steps) == DDS_BRANCHING_GOLDEN["composition_steps"]

    def test_measures(self, dds_branching_evaluator):
        assert dds_branching_evaluator.availability() == pytest.approx(
            DDS_BRANCHING_GOLDEN["availability"], rel=1e-12
        )
        assert dds_branching_evaluator.reliability(
            DDS_MISSION_TIME
        ) == pytest.approx(DDS_BRANCHING_GOLDEN["reliability_5_weeks"], rel=1e-12)

    def test_agrees_with_strong_mode_to_solver_precision(
        self, dds_full_evaluator, dds_branching_evaluator
    ):
        assert dds_branching_evaluator.availability() == pytest.approx(
            dds_full_evaluator.availability(), rel=1e-12
        )


@pytest.mark.slow
class TestRCSBranchingGolden:
    """Branching-mode subsystem sizes and measures of the modular RCS run."""

    def test_subsystem_ctmc_sizes(self, rcs_branching_modular_evaluator):
        pumps = rcs_branching_modular_evaluator.evaluators["pumps"]
        heat = rcs_branching_modular_evaluator.evaluators["heat_exchange"]
        assert pumps.ctmc.num_states == RCS_BRANCHING_GOLDEN["pump_ctmc_states"]
        assert (
            pumps.ctmc.num_transitions
            == RCS_BRANCHING_GOLDEN["pump_ctmc_transitions"]
        )
        assert heat.ctmc.num_states == RCS_BRANCHING_GOLDEN["heat_ctmc_states"]
        assert (
            heat.ctmc.num_transitions == RCS_BRANCHING_GOLDEN["heat_ctmc_transitions"]
        )

    def test_subsystem_unavailabilities(self, rcs_branching_modular_evaluator):
        pumps = rcs_branching_modular_evaluator.evaluators["pumps"]
        heat = rcs_branching_modular_evaluator.evaluators["heat_exchange"]
        assert pumps.unavailability() == pytest.approx(
            RCS_BRANCHING_GOLDEN["pump_unavailability"], rel=1e-12
        )
        assert heat.unavailability() == pytest.approx(
            RCS_BRANCHING_GOLDEN["heat_unavailability"], rel=1e-12
        )


@pytest.mark.slow
def test_dds_modular_matches_full_composition(dds_full_evaluator, dds_modular_evaluator):
    """The two independent DDS evaluations must agree to solver precision."""
    assert dds_full_evaluator.availability() == pytest.approx(
        dds_modular_evaluator.availability(), rel=1e-9
    )


@pytest.mark.slow
class TestPreFusionTrajectory:
    """The full products of the unfused pipeline, and its measures.

    The fused measures are read from the shared session evaluators before
    the composer is patched, so they are never computed on the unfused
    path.
    """

    def test_dds(self, dds_full_evaluator, monkeypatch):
        fused = (
            dds_full_evaluator.availability(),
            dds_full_evaluator.reliability(DDS_MISSION_TIME),
        )
        use_unfused_composer(monkeypatch)
        unfused = build_dds_evaluator()
        measures = (unfused.availability(), unfused.reliability(DDS_MISSION_TIME))
        statistics = unfused.composed.statistics
        no_repair = unfused.composed_without_repair.statistics
        assert (
            statistics.largest_intermediate_states,
            statistics.largest_intermediate_transitions,
            len(statistics.steps),
            no_repair.largest_intermediate_states,
            no_repair.largest_intermediate_transitions,
        ) == (
            PRE_FUSION_GOLDEN["dds_largest_intermediate_states"],
            PRE_FUSION_GOLDEN["dds_largest_intermediate_transitions"],
            PRE_FUSION_GOLDEN["dds_composition_steps"],
            PRE_FUSION_GOLDEN["dds_no_repair_largest_intermediate_states"],
            PRE_FUSION_GOLDEN["dds_no_repair_largest_intermediate_transitions"],
        )
        assert measures == fused

    def test_rcs(self, rcs_modular_evaluator, monkeypatch):
        subsystems = (("pumps", "pump"), ("heat_exchange", "heat"))
        fused = [
            rcs_modular_evaluator.evaluators[subsystem].unavailability()
            for subsystem, _ in subsystems
        ] + [rcs_modular_evaluator.unreliability(RCS_MISSION_TIME)]
        use_unfused_composer(monkeypatch)
        unfused = build_rcs_modular_evaluator()
        measures = [
            unfused.evaluators[subsystem].unavailability()
            for subsystem, _ in subsystems
        ] + [unfused.unreliability(RCS_MISSION_TIME)]
        assert measures == fused
        for subsystem, prefix in subsystems:
            statistics = unfused.evaluators[subsystem].composed.statistics
            assert (
                statistics.largest_intermediate_states,
                statistics.largest_intermediate_transitions,
            ) == (
                PRE_FUSION_GOLDEN[f"{prefix}_largest_intermediate_states"],
                PRE_FUSION_GOLDEN[f"{prefix}_largest_intermediate_transitions"],
            )
