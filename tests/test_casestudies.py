"""Tests for the paper's case studies (Section 5): DDS and RCS."""

import pytest

from repro.casestudies import dds, rcs
from repro.casestudies.dds import (
    DDSParameters,
    MISSION_TIME_HOURS,
    build_dds_evaluator,
    build_dds_model,
)
from repro.casestudies.rcs import (
    MISSION_TIME_HOURS as RCS_MISSION_TIME,
    build_rcs_model,
    build_rcs_modular_evaluator,
)
from repro.errors import ArcadeError, ModelError
from repro.sweep import SweepConfig


@pytest.fixture(scope="module")
def dds_modular(dds_modular_evaluator):
    """One shared modular DDS evaluation: building it is the expensive part."""
    return dds_modular_evaluator


@pytest.fixture(scope="module")
def rcs_modular(rcs_modular_evaluator):
    """One shared modular RCS evaluation; its sub-evaluators are the pump and
    heat-exchange pipelines, so the subsystem tests reuse them instead of
    re-running identical compositions."""
    return rcs_modular_evaluator


class TestDDSModel:
    def test_component_counts(self):
        model = build_dds_model()
        summary = model.summary()
        # 2 processors + 4 controllers + 24 disks.
        assert summary["components"] == 30
        # processor RU + 2 controller-set RUs + 6 cluster RUs.
        assert summary["repair_units"] == 9
        assert summary["spare_units"] == 1
        model.validate()

    def test_parametric_generator(self):
        small = build_dds_model(DDSParameters(num_clusters=2, disks_per_cluster=3))
        assert small.summary()["components"] == 2 + 4 + 6

    def test_modular_availability_matches_table1(self, dds_modular):
        assert dds_modular.availability() == pytest.approx(0.999997, abs=1e-6)

    def test_modular_reliability_matches_table1(self, dds_modular):
        reliability = dds_modular.reliability(MISSION_TIME_HOURS, assume_no_repair=True)
        assert reliability == pytest.approx(0.402018, abs=5e-6)


@pytest.mark.slow
class TestDDSFullComposition:
    """The full compositional-aggregation run of Section 5.1.2 (slower test)."""

    @pytest.fixture(scope="class")
    def evaluator(self, dds_full_evaluator):
        return dds_full_evaluator

    def test_ctmc_size_matches_paper(self, evaluator):
        """The paper reports a final CTMC of 2,100 states and 15,120 transitions."""
        evaluator.availability()
        assert evaluator.ctmc.num_states == 2100
        assert evaluator.ctmc.num_transitions == 15120

    def test_availability_matches_table1(self, evaluator):
        assert evaluator.availability() == pytest.approx(0.999997, abs=1e-6)

    def test_reliability_matches_table1(self, evaluator):
        reliability = evaluator.reliability(MISSION_TIME_HOURS)
        assert reliability == pytest.approx(0.402018, abs=5e-6)

    def test_full_composition_agrees_with_modular(self, evaluator, dds_modular):
        assert evaluator.availability() == pytest.approx(
            dds_modular.availability(), rel=1e-9
        )


class TestRCSModel:
    @pytest.fixture(scope="class")
    def pumps(self, rcs_modular):
        # Identical pipeline to build_pump_evaluator(): same model, same
        # hierarchical order (see build_rcs_modular_evaluator).
        return rcs_modular.evaluators["pumps"]

    @pytest.fixture(scope="class")
    def heat(self, rcs_modular):
        return rcs_modular.evaluators["heat_exchange"]

    def test_full_model_validates(self):
        model = build_rcs_model()
        model.validate()
        # 2 pumps + 2 filters + 4 line valves + HX + HX filter + 2 HX valves + 2 MVs
        assert model.summary()["components"] == 14

    def test_pump_subsystem_measures(self, pumps):
        unavailability = pumps.unavailability()
        # Both pump lines must be down simultaneously: a very rare event, but
        # strictly positive and far below a single line's unavailability.
        assert 0.0 < unavailability < 1e-6

    def test_heat_exchange_subsystem_measures(self, heat):
        assert 0.0 < heat.unavailability() < 1e-9

    def test_pump_subsystem_dominates_state_space(self, pumps, heat):
        """Section 5.2.2: the pump subsystem CTMC is much larger than the HX one."""
        pumps.availability()
        heat.availability()
        assert pumps.ctmc.num_states > 10 * heat.ctmc.num_states

    @pytest.mark.slow
    def test_modular_measures_match_paper_shape(self, rcs_modular):
        """Section 5.2.2 reports ~6.5e-10 unavailability and ~5.3e-9 unreliability at 50 h."""
        modular = rcs_modular
        from repro.ctmc import point_availability

        unavailability_50h = 1.0 - (
            (point_availability(modular.evaluators["pumps"].ctmc, RCS_MISSION_TIME))
            * (point_availability(modular.evaluators["heat_exchange"].ctmc, RCS_MISSION_TIME))
        )
        unreliability_50h = modular.unreliability(RCS_MISSION_TIME)
        # Same order of magnitude and same ordering as the paper's numbers.
        assert 1e-10 < unavailability_50h < 2e-9
        assert 1e-9 < unreliability_50h < 2e-8
        assert unreliability_50h > unavailability_50h

    def test_erlang_pumps_have_load_sharing(self):
        model = build_rcs_model()
        pump = model.components["P1"]
        assert pump.time_to_failure_of(1).mean() == pytest.approx(
            pump.time_to_failure_of(0).mean() / 2.0
        )


class TestDDSParameterValidation:
    """Out-of-range counts fail with the field's name instead of building a
    smaller model than the one asked for."""

    @pytest.mark.parametrize(
        "field",
        ["num_clusters", "num_controller_sets", "controllers_per_set", "disks_per_cluster"],
    )
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_below_one_are_refused(self, field, value):
        with pytest.raises(ModelError, match=rf"DDSParameters\.{field} must be at least 1"):
            DDSParameters(**{field: value})

    @pytest.mark.parametrize("value", [0, 5])
    def test_cluster_failure_threshold_must_fit_the_cluster(self, value):
        pattern = r"disks_down_for_cluster_failure must lie in \[1, disks_per_cluster=4\]"
        with pytest.raises(ModelError, match=pattern):
            DDSParameters(disks_down_for_cluster_failure=value)

    def test_threshold_equal_to_cluster_size_is_accepted(self):
        assert DDSParameters(disks_down_for_cluster_failure=4).disks_per_cluster == 4

    def test_cli_refuses_zero_clusters(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            dds.main(["--clusters", "0"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "error: DDSParameters.num_clusters must be at least 1, got 0" in error
        assert "Traceback" not in error


class TestSerialOnly:
    """The composer is serial; the entry points that keep a ``jobs``
    parameter refuse every value but 1."""

    @pytest.mark.parametrize("jobs", [0, 2, 4])
    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda jobs: build_dds_evaluator(jobs=jobs),
            lambda jobs: build_rcs_modular_evaluator(jobs=jobs),
            lambda jobs: SweepConfig(grid={"repair_rate": [1.0]}, jobs=jobs),
        ],
        ids=["build_dds_evaluator", "build_rcs_modular_evaluator", "SweepConfig"],
    )
    def test_jobs_other_than_one_is_refused(self, entry_point, jobs):
        pattern = r"jobs must be 1.*subtree parallelism was removed"
        with pytest.raises(ArcadeError, match=pattern):
            entry_point(jobs)


class TestCaseStudyCLIs:
    """End-to-end runs of the two ``main()`` entry points on small inputs."""

    def test_dds_single_cluster(self, capsys):
        dds.main(["--clusters", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert "  final CTMC: 50 states / 200 transitions" in lines
        assert "  availability          0.999998168" in lines
        assert "  reliability (5 weeks) 0.628324238" in lines

    def test_rcs_modular(self, capsys):
        rcs.main([])
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("  pump subsystem CTMC: 1164 states / 8928 transitions")
            for line in lines
        )
        assert "  unreliability  (50 h) 4.382500e-09" in lines

    def test_dds_simulate_backend(self, capsys):
        dds.main(
            [
                "--clusters", "1", "--backend", "simulate", "--replications", "16",
                "--sim-horizon", "2000", "--sim-seed", "3",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert "DDS (1 clusters), backend=simulate (RESTART)" in lines
        assert "  unavailability CI     0.000000e+00 ± 0.00e+00 (99%, n=16)" in lines
        assert "  reliability (5 weeks) 0.750000000" in lines

    def test_dds_one_point_sweep(self, capsys):
        dds.main(
            [
                "--clusters", "1", "--sweep", "--sweep-grid", "repair_rate=1.0",
                "--no-importance",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("dds sweep: 1 points, 8 evaluations") for line in lines)
        assert "  dU/d repair_rate: -3.680e-06 (elasticity -2.009)" in lines


class TestCaseStudyCLIOptions:
    def test_sweep_refuses_an_order_policy(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            dds.main(["--clusters", "1", "--sweep", "--order", "auto"])
        assert exit_info.value.code == 2
        assert "--order auto cannot be combined with --sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arguments,seeds",
        [
            (["--sweep", "--sweep-grid", "repair_rate=1.0", "--root-seed", "7"],
             {"root_seed": 7}),
            (["--backend", "simulate", "--replications", "2", "--sim-horizon", "20",
              "--sim-seed", "5"], {"sim_seed": 5}),
        ],
        ids=["sweep", "single"],
    )
    def test_manifest_records_the_consumed_seed(self, tmp_path, arguments, seeds):
        from repro.telemetry import load_run

        path = tmp_path / "run.jsonl"
        dds.main(
            ["--clusters", "1", "--no-importance", "--quiet", "--telemetry", str(path)]
            + arguments
        )
        assert load_run(path).manifest["seeds"] == seeds
