"""The fleet-scale parameter sweep engine (:mod:`repro.sweep`).

Covers the four layers:

* **space** — grid enumeration order, Latin-hypercube stratification and
  determinism, prior validation;
* **seeding** — the per-point ``SeedSequence`` derivation is stateless,
  equivalent to ``spawn``, and pinned by golden values;
* **sensitivity** — fault-tree conditioning (constants, voting thresholds,
  mode-specific refusal) and the derived importance measures;
* **driver + store** — a tiny two-component family swept end to end:
  per-point seeds, shared-cache traffic, bit-identity against fresh serial
  evaluators, columnar-store round-trips and failure modes.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis import ArcadeEvaluator
from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    down,
)
from repro.arcade.expressions import And, KOutOfN, Literal, Or
from repro.distributions import Exponential
from repro.errors import SweepError
from repro.simulation.rng import point_seed, point_seed_sequence
from repro.sweep import (
    Prior,
    STORE_VERSION,
    SweepConfig,
    SweepFactory,
    check_axis_names,
    condition_expression,
    conditioned_model,
    evaluate_point,
    grid_points,
    latin_hypercube,
    load_result,
    resolve_prior,
    run_sweep,
    verify_bit_identical,
)


# --------------------------------------------------------------------------- #
# a deliberately tiny model family (fast enough to sweep in every test)
# --------------------------------------------------------------------------- #
def _build_tiny(values) -> ArcadeModel:
    model = ArcadeModel(name="tiny_pair")
    model.add_component(
        BasicComponent(
            "a",
            time_to_failures=Exponential(values["fail_a"]),
            time_to_repairs=Exponential(values["repair"]),
        )
    )
    model.add_component(
        BasicComponent(
            "b",
            time_to_failures=Exponential(values["fail_b"]),
            time_to_repairs=Exponential(values["repair"]),
        )
    )
    model.add_repair_unit(RepairUnit("rep", ["a", "b"], RepairStrategy.FCFS))
    model.set_system_down(And([down("a"), down("b")]))
    return model


def _tiny_factory() -> SweepFactory:
    return SweepFactory(
        name="tiny",
        build=_build_tiny,
        base={"fail_a": 0.01, "fail_b": 0.02, "repair": 1.0},
        rate_axes=("fail_a", "repair"),
        importance_components=("a", "b"),
    )


# --------------------------------------------------------------------------- #
# parameter space
# --------------------------------------------------------------------------- #
class TestSpace:
    def test_grid_is_odometer_ordered_last_axis_fastest(self):
        points = grid_points({"x": [1.0, 2.0], "y": [10.0, 20.0, 30.0]})
        assert len(points) == 6
        assert points[0] == {"x": 1.0, "y": 10.0}
        assert points[1] == {"x": 1.0, "y": 20.0}
        assert points[3] == {"x": 2.0, "y": 10.0}
        # Except at odometer rollovers, consecutive points differ in exactly
        # one axis (which keeps the shared cache warm between neighbours).
        changes = [
            sum(before[k] != after[k] for k in before)
            for before, after in zip(points, points[1:])
        ]
        assert changes == [1, 1, 2, 1, 1]

    def test_empty_grid_axis_is_rejected(self):
        with pytest.raises(SweepError, match="no values"):
            grid_points({"x": []})

    def test_prior_validation(self):
        with pytest.raises(SweepError, match="low < high"):
            Prior(2.0, 1.0)
        with pytest.raises(SweepError, match="positive lower bound"):
            Prior(0.0, 1.0, log=True)
        assert Prior(0.0, 1.0, log=False).low == 0.0

    def test_prior_from_unit_log_and_linear(self):
        log_prior = Prior(1e-4, 1e-2, log=True)
        ends = log_prior.from_unit(np.array([0.0, 0.5, 1.0]))
        assert ends[0] == pytest.approx(1e-4)
        assert ends[1] == pytest.approx(1e-3)  # geometric midpoint
        assert ends[2] == pytest.approx(1e-2)
        linear = Prior(2.0, 4.0, log=False)
        assert linear.from_unit(np.array([0.5]))[0] == pytest.approx(3.0)

    def test_resolve_prior_accepts_tuples(self):
        assert resolve_prior((1e-3, 1e-1)) == Prior(1e-3, 1e-1, log=True)
        assert resolve_prior((0.0, 1.0, False)) == Prior(0.0, 1.0, log=False)
        with pytest.raises(SweepError):
            resolve_prior("not a prior")

    def test_latin_hypercube_stratifies_every_axis(self):
        samples = 16
        prior = Prior(1e-6, 1e-2, log=True)
        points = latin_hypercube({"r": prior, "s": (1.0, 2.0, False)}, samples, seed=3)
        assert len(points) == samples
        for axis, low, high, log in (("r", 1e-6, 1e-2, True), ("s", 1.0, 2.0, False)):
            values = np.array([p[axis] for p in points])
            assert values.min() >= low and values.max() <= high
            # Exactly one sample per stratum of the unit cube.
            if log:
                quantiles = np.log(values / low) / np.log(high / low)
            else:
                quantiles = (values - low) / (high - low)
            strata = np.floor(quantiles * samples).astype(int)
            assert sorted(strata) == list(range(samples))

    def test_latin_hypercube_is_deterministic_per_seed(self):
        priors = {"r": Prior(1e-5, 1e-3)}
        assert latin_hypercube(priors, 8, seed=7) == latin_hypercube(priors, 8, seed=7)
        assert latin_hypercube(priors, 8, seed=7) != latin_hypercube(priors, 8, seed=8)

    def test_reserved_axis_names_are_rejected(self):
        with pytest.raises(SweepError, match="reserved"):
            check_axis_names(["availability"], ("availability", "seed"))
        check_axis_names(["fail_a"], ("availability", "seed"))  # fine


# --------------------------------------------------------------------------- #
# per-point seeding
# --------------------------------------------------------------------------- #
class TestPointSeeding:
    def test_stateless_derivation_equals_seed_sequence_spawn(self):
        root = 12345
        children = np.random.SeedSequence(root).spawn(8)
        for index in (0, 3, 7):
            expected = int(children[index].generate_state(1, np.uint64)[0])
            assert point_seed(root, index) == expected

    def test_golden_values_are_pinned(self):
        # Golden pins: NEP-19 guarantees SeedSequence stability across numpy
        # versions, so these exact values are part of the sweep contract
        # (stores record per-point seeds; re-evaluation must re-derive them).
        assert point_seed(0, 0) == 8668861027912758289
        assert point_seed(0, 1) == 4881901421217228719
        assert point_seed(12345, 7) == 13232092823079942430

    def test_derivation_is_independent_of_order(self):
        late = point_seed(99, 1000)
        early = point_seed(99, 2)
        assert point_seed(99, 1000) == late  # no hidden spawn-counter state
        assert early != late
        assert point_seed_sequence(99, 2).spawn_key == (2,)


# --------------------------------------------------------------------------- #
# fault-tree conditioning
# --------------------------------------------------------------------------- #
class TestConditioning:
    def test_forcing_up_and_down_on_literals(self):
        tree = Or([down("a"), down("b")])
        assert condition_expression(tree, "a", failed=True) is True
        conditioned = condition_expression(tree, "a", failed=False)
        assert isinstance(conditioned, Literal) and conditioned.component == "b"

    def test_and_absorbs_constants(self):
        tree = And([down("a"), down("b"), down("c")])
        assert condition_expression(tree, "a", failed=False) is False
        conditioned = condition_expression(tree, "a", failed=True)
        assert isinstance(conditioned, And)
        assert {literal.component for literal in conditioned.atoms()} == {"b", "c"}

    def test_k_out_of_n_threshold_recounting(self):
        tree = KOutOfN(2, [down("a"), down("b"), down("c")])
        forced_down = condition_expression(tree, "a", failed=True)
        assert isinstance(forced_down, Or)  # 1-of-2 over b, c
        forced_up = condition_expression(tree, "a", failed=False)
        assert isinstance(forced_up, And)  # 2-of-2 over b, c
        pair = KOutOfN(2, [down("a"), down("b")])
        assert condition_expression(pair, "a", failed=False) is False
        single = KOutOfN(1, [down("a"), down("b")])
        assert condition_expression(single, "a", failed=True) is True

    def test_mode_specific_literal_refuses_component_conditioning(self):
        tree = Or([down("a", "m2"), down("b")])
        with pytest.raises(SweepError, match="failure mode"):
            condition_expression(tree, "a", failed=True)
        # Forcing up is unambiguous even for mode-specific literals.
        conditioned = condition_expression(tree, "a", failed=False)
        assert isinstance(conditioned, Literal)

    def test_conditioned_model_constant_and_clone(self):
        model = _build_tiny({"fail_a": 0.01, "fail_b": 0.02, "repair": 1.0})
        never_down = conditioned_model(model, "a", failed=False)
        assert never_down is False  # And collapses: system can never fail
        clone = conditioned_model(model, "a", failed=True)
        assert isinstance(clone, ArcadeModel)
        assert clone.name == "tiny_pair__a_down"
        assert isinstance(clone.system_down, Literal)
        assert clone.components is not model.components  # shallow copy
        assert clone.components["a"] is model.components["a"]  # shared blocks
        with pytest.raises(SweepError, match="unknown component"):
            conditioned_model(model, "zz", failed=True)


# --------------------------------------------------------------------------- #
# the driver, end to end on the tiny family
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_sweep():
    factory = _tiny_factory()
    config = SweepConfig(
        grid={"fail_a": [0.005, 0.01], "fail_b": [0.02, 0.04]},
        priors={"fail_a": Prior(0.001, 0.1)},
        lhs_samples=4,
        cache="on",
        root_seed=17,
    )
    return factory, config, run_sweep(factory, config)


class TestDriver:
    def test_point_counts_kinds_and_axes(self, tiny_sweep):
        _, _, result = tiny_sweep
        kinds = list(result.points["kind"])
        assert kinds.count("grid") == 4
        assert kinds.count("lhs") == 4
        assert kinds.count("base") == 1
        assert kinds.count("fd") == 4  # two axes, two shifts each
        assert result.manifest["totals"]["points"] == 8
        # Swept axes first, then the FD-only sensitivity axis (repair).
        assert result.axes == ["fail_a", "fail_b", "repair"]

    def test_every_row_gets_its_spawned_seed(self, tiny_sweep):
        _, config, result = tiny_sweep
        for row in result.points:
            assert int(row["seed"]) == point_seed(config.root_seed, int(row["index"]))
        assert len(set(result.points["seed"])) == len(result.points)

    def test_shared_cache_sees_traffic_and_reports_hit_rate(self, tiny_sweep):
        _, _, result = tiny_sweep
        cache = result.manifest["cache"]
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0
        assert cache["hits"] == int(result.points["cache_hits"].sum())

    def test_bit_identical_to_fresh_serial_evaluators(self, tiny_sweep):
        factory, config, result = tiny_sweep
        report = verify_bit_identical(factory, result, config)
        assert report["checked"] == len(result.points)
        assert report["identical"], report

    def test_sensitivities_have_physical_signs(self, tiny_sweep):
        _, _, result = tiny_sweep
        rows = {row["axis"]: row for row in result.sensitivities}
        assert set(rows) == {"fail_a", "repair"}
        assert rows["fail_a"]["derivative"] > 0  # more failures, more downtime
        assert rows["repair"]["derivative"] < 0  # faster repair, less downtime
        assert rows["fail_a"]["elasticity"] > 0
        assert rows["repair"]["unavailability_lower"] > rows["repair"]["unavailability_upper"]

    def test_importance_matches_manual_conditioning(self, tiny_sweep):
        factory, config, result = tiny_sweep
        rows = {row["component"]: row for row in result.importance}
        assert set(rows) == {"a", "b"}
        # Forcing either component of the AND up makes the system immortal.
        assert rows["a"]["availability_up"] == 1.0
        base = result.points[result.points["kind"] == "base"][0]
        for component in ("a", "b"):
            row = rows[component]
            assert row["birnbaum"] == pytest.approx(
                row["availability_up"] - row["availability_down"]
            )
            assert row["improvement_potential"] == pytest.approx(
                row["availability_up"] - base["availability"]
            )
        # Parallel redundancy: I_B(a) = 1 - A(system | a down) = U_b, so the
        # MORE reliable component carries the higher Birnbaum importance
        # (losing it leaves the weaker partner holding the system up).
        assert rows["a"]["birnbaum"] > rows["b"]["birnbaum"]

    def test_lhs_distribution_summary(self, tiny_sweep):
        _, _, result = tiny_sweep
        summary = result.manifest["distributions"]["lhs"]["unavailability"]
        assert summary["samples"] == 4
        assert summary["quantiles"]["0.05"] <= summary["quantiles"]["0.95"]

    def test_unknown_axis_is_rejected(self):
        factory = _tiny_factory()
        with pytest.raises(SweepError, match="not a parameter"):
            run_sweep(factory, SweepConfig(grid={"bogus": [1.0]}))

    def test_reserved_axis_name_is_rejected(self):
        factory = _tiny_factory()
        with pytest.raises(SweepError, match="reserved"):
            run_sweep(factory, SweepConfig(grid={"seed": [1.0]}))

    def test_empty_sweep_is_rejected(self):
        factory = _tiny_factory()
        with pytest.raises(SweepError, match="no points"):
            run_sweep(factory, SweepConfig())

    def test_mission_time_fills_the_unreliability_column(self):
        factory = _tiny_factory()
        config = SweepConfig(
            grid={"fail_a": [0.01]},
            mission_time=100.0,
            sensitivity_axes=(),
            importance=False,
            cache="off",
        )
        result = run_sweep(factory, config)
        value = float(result.points["unreliability"][0])
        assert 0.0 < value < 1.0
        report = verify_bit_identical(factory, result, config)
        assert report["identical"], report


class TestBackendRouting:
    def test_auto_resolves_by_flat_state_bound(self, monkeypatch):
        model = _build_tiny({"fail_a": 0.01, "fail_b": 0.02, "repair": 1.0})
        assert ArcadeEvaluator(model, backend="auto").resolved_backend == "compose"
        monkeypatch.setattr("repro.analysis.evaluator.AUTO_STATE_LIMIT", 2.0)
        tiny_limit = ArcadeEvaluator(model, backend="auto")
        assert tiny_limit.resolved_backend == "simulate"
        fixed = ArcadeEvaluator(model, backend="simulate")
        assert fixed.resolved_backend == "simulate"

    def test_simulated_points_record_seed_half_width_and_reproduce(self):
        factory = _tiny_factory()
        config = SweepConfig(
            grid={"fail_a": [0.01, 0.02]},
            backend="simulate",
            sim_horizon=50.0,
            sim_replications=32,
            sensitivity_axes=(),
            importance=False,
            cache="off",
            root_seed=5,
        )
        result = run_sweep(factory, config)
        assert list(result.points["backend"]) == ["simulate", "simulate"]
        assert (result.points["ctmc_states"] == 0).all()
        assert len(set(result.points["seed"])) == 2
        report = verify_bit_identical(factory, result, config)
        assert report["identical"], report


# --------------------------------------------------------------------------- #
# columnar store
# --------------------------------------------------------------------------- #
class TestStore:
    def test_roundtrip_is_bytewise_exact(self, tiny_sweep, tmp_path):
        _, _, result = tiny_sweep
        npz_path, manifest_path = result.save(tmp_path / "tiny")
        assert npz_path.exists() and manifest_path.exists()
        reloaded = load_result(tmp_path / "tiny")
        assert reloaded.points.tobytes() == result.points.tobytes()
        assert reloaded.points.dtype == result.points.dtype
        assert reloaded.sensitivities.tobytes() == result.sensitivities.tobytes()
        assert reloaded.importance.tobytes() == result.importance.tobytes()
        assert reloaded.manifest["sweep"] == json.loads(
            json.dumps(result.manifest["sweep"])
        )
        assert reloaded.axes == result.axes

    def test_manifest_schema_block_describes_the_tables(self, tiny_sweep, tmp_path):
        _, _, result = tiny_sweep
        _, manifest_path = result.save(tmp_path / "tiny")
        manifest = json.loads(manifest_path.read_text())
        store = manifest["store"]
        assert store["version"] == STORE_VERSION
        assert store["tables"]["points"]["rows"] == len(result.points)
        assert "availability" in store["tables"]["points"]["fields"]

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(SweepError, match="cannot read sweep manifest"):
            load_result(tmp_path / "nothing")

    def test_corrupt_manifest_raises(self, tiny_sweep, tmp_path):
        _, _, result = tiny_sweep
        _, manifest_path = result.save(tmp_path / "tiny")
        manifest_path.write_text("{broken")
        with pytest.raises(SweepError, match="not valid JSON"):
            load_result(tmp_path / "tiny")

    def test_schema_mismatch_raises(self, tiny_sweep, tmp_path):
        _, _, result = tiny_sweep
        npz_path, _ = result.save(tmp_path / "tiny")
        # Swap the npz for one with a truncated points table.
        np.savez_compressed(
            npz_path,
            points=result.points[:1],
            sensitivities=result.sensitivities,
            importance=result.importance,
        )
        with pytest.raises(SweepError, match="does not match the manifest schema"):
            load_result(tmp_path / "tiny")

    def test_version_mismatch_raises(self, tiny_sweep, tmp_path):
        _, _, result = tiny_sweep
        _, manifest_path = result.save(tmp_path / "tiny")
        manifest = json.loads(manifest_path.read_text())
        manifest["store"]["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SweepError, match="unsupported store block"):
            load_result(tmp_path / "tiny")


# --------------------------------------------------------------------------- #
# CLI plumbing
# --------------------------------------------------------------------------- #
class TestCliParsing:
    def test_grid_specs(self):
        from repro.casestudies.sweep_cli import parse_grid_specs

        grid = parse_grid_specs(["fail_a=0.1,0.2", "repair=1"])
        assert grid == {"fail_a": [0.1, 0.2], "repair": [1.0]}
        with pytest.raises(SweepError):
            parse_grid_specs(["no_values"])
        with pytest.raises(SweepError):
            parse_grid_specs(["fail_a=abc"])

    def test_prior_specs(self):
        from repro.casestudies.sweep_cli import parse_prior_specs

        priors = parse_prior_specs(["r=1e-4,1e-2", "s=0,1,linear"])
        assert priors["r"] == Prior(1e-4, 1e-2, log=True)
        assert priors["s"] == Prior(0.0, 1.0, log=False)
        with pytest.raises(SweepError):
            parse_prior_specs(["r=1e-4"])
        with pytest.raises(SweepError):
            parse_prior_specs(["r=1,2,cubic"])


class TestConfigValidation:
    """Bad settings fail when the config is built, not after the grid ran."""

    @pytest.mark.parametrize("fd_step", [0.0, -0.05, 1.0, 2.0])
    def test_fd_step_outside_the_open_unit_interval_is_refused(self, fd_step):
        with pytest.raises(SweepError, match="fd_step must lie in"):
            SweepConfig(fd_step=fd_step)

    @pytest.mark.parametrize("every", [0, -1])
    def test_checkpoint_every_below_one_is_refused(self, every):
        with pytest.raises(SweepError, match="checkpoint_every must be at least 1"):
            SweepConfig(checkpoint_every=every)

    @pytest.mark.parametrize(
        ("option", "pattern"),
        [
            ("--fd-step", "fd_step must lie in"),
            ("--checkpoint-every", "checkpoint_every must be at least 1"),
        ],
    )
    def test_cli_refuses_before_evaluating(self, option, pattern, monkeypatch, capsys):
        from repro.casestudies import dds
        from repro.sweep import driver

        def never(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(driver, "evaluate_point", never)
        with pytest.raises(SystemExit) as exit_info:
            dds.main(["--sweep", "--clusters", "1", option, "0"])
        assert exit_info.value.code == 2
        assert f"error: {pattern}" in capsys.readouterr().err


def test_evaluate_point_is_a_pure_function_of_its_arguments():
    factory = _tiny_factory()
    config = SweepConfig()
    first = evaluate_point(factory, {"fail_a": 0.02}, config, seed=point_seed(3, 0))
    second = evaluate_point(factory, {"fail_a": 0.02}, config, seed=point_seed(3, 0))
    assert first.unavailability == second.unavailability
    assert first.availability == second.availability
    assert first.values == second.values
    assert math.isnan(first.unreliability)  # no mission time requested
