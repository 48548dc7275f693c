"""Unit and property tests for the vectorised engine and RESTART splitting.

The heavyweight guarantees (bit-equality across the whole random-model
corpus, CI calibration against the compositional pipeline) live in
``tests/differential/test_simulation_differential.py``; this file keeps
fast, deterministic pins of the same machinery plus the statistical
properties of RESTART on models with known closed-form unavailability.
"""

import math
import re

import numpy as np
import pytest

from repro.analysis import ArcadeEvaluator
from repro.arcade import (
    And,
    ArcadeModel,
    BasicComponent,
    Literal,
    RepairUnit,
)
from repro.arcade.expressions import KOutOfN, Or
from repro.distributions import Exponential
from repro.errors import ModelError
from repro.casestudies.dds import build_dds_model
from repro.simulation import (
    ArcadeSimulator,
    RestartSimulator,
    VectorisedSimulator,
    batch_means,
    importance_function,
)
from repro.simulation.importance import (
    component_weights,
    literal_depths,
    min_weighted_cut,
)
from repro.simulation.rng import trajectory_generator
from test_golden_regression import DDS_GOLDEN


def anded_model(count: int, *, rate: float = 0.05, repair: float = 1.0) -> ArcadeModel:
    """``count`` independent repairable components, down = all failed.

    With dedicated repair per component the components are independent
    two-state chains, so the exact steady-state unavailability is
    ``(rate / (rate + repair)) ** count``.
    """
    model = ArcadeModel(f"anded_{count}")
    for index in range(count):
        name = f"c{index}"
        model.add_component(
            BasicComponent(
                name,
                time_to_failures=[Exponential(rate)],
                time_to_repairs=[Exponential(repair)],
            )
        )
        model.add_repair_unit(RepairUnit(f"r{index}", [name]))
    model.set_system_down(And([Literal(f"c{index}", None) for index in range(count)]))
    return model


# --------------------------------------------------------------------------- #
# engine equivalences
# --------------------------------------------------------------------------- #
def test_matched_mode_matches_scalar_exactly():
    model = anded_model(3)
    scalar = ArcadeSimulator(model, seed=0)
    scalar_logs, scalar_traces = [], []
    for index in range(4):
        log: list = []
        scalar_traces.append(
            scalar.run(200.0, rng=trajectory_generator(11, index), log=log)
        )
        scalar_logs.append(log)

    vector_logs: list = []
    batch = VectorisedSimulator(model, seed=11, mode="matched").run_batch(
        200.0, 4, log=vector_logs
    )
    assert vector_logs == scalar_logs
    for trace, expected in zip(batch.traces(), scalar_traces):
        assert trace.down_time == expected.down_time
        assert trace.failures == expected.failures
        assert trace.events == expected.events


def test_restart_with_splitting_one_is_plain_monte_carlo():
    """r=1 spawns no clones, so RESTART degenerates to the batched engine."""
    model = anded_model(2, rate=0.2)
    batch = VectorisedSimulator(model, seed=21).run_batch(500.0, 64)
    result = RestartSimulator(model, seed=21, splitting=1).run(500.0, 64)
    assert np.allclose(result.samples, batch.unavailability_samples())
    assert result.total_events == int(batch.events.sum())
    assert all(diag.spawned == 0 for diag in result.levels)


def test_batch_result_estimate_and_modes():
    model = anded_model(2, rate=0.5)
    simulator = VectorisedSimulator(model, seed=5)
    batch = simulator.run_batch(50.0, 128)
    estimate = batch.estimate()
    assert estimate.runs == 128
    assert 0.0 <= estimate.mean_unavailability <= 1.0
    assert estimate.total_events == int(batch.events.sum())
    with pytest.raises(ModelError):
        VectorisedSimulator(model, mode="telepathic")


# --------------------------------------------------------------------------- #
# importance function
# --------------------------------------------------------------------------- #
def test_literal_depths_and_weights():
    tree = Or(
        [
            Literal("a", None),
            And([Literal("b", None), Or([Literal("c", None), Literal("b", None)])]),
        ]
    )
    depths = literal_depths(tree)
    assert depths == {"a": 1, "b": 2, "c": 3}
    # The minimal weighted cut of an Or is its cheapest child.
    weights = {"a": 1.0, "b": 0.5, "c": 1.0 / 3.0}
    assert min_weighted_cut(tree, weights) == pytest.approx(
        min(1.0, 0.5 + 1.0 / 3.0)
    )


def test_min_weighted_cut_k_out_of_n():
    tree = KOutOfN(2, [Literal(name, None) for name in ("a", "b", "c")])
    weights = {"a": 3.0, "b": 1.0, "c": 2.0}
    assert min_weighted_cut(tree, weights) == pytest.approx(3.0)  # b + c


def test_importance_function_thresholds_are_below_the_cut():
    model = anded_model(4)
    imp = importance_function(model)
    assert np.allclose(imp.weights, 1.0)
    assert imp.top_value == pytest.approx(4.0)
    # One threshold per "one more component down", strictly below the cut.
    assert np.allclose(imp.thresholds, [1.0, 2.0, 3.0])
    down = np.zeros((3, 4), dtype=bool)
    down[1, 0] = True
    down[2] = True
    assert list(imp.level(imp.phi(down))) == [0, 1, 3]


def test_component_weights_need_a_system_down_expression():
    model = ArcadeModel("bare")
    model.add_component(
        BasicComponent("c0", time_to_failures=[Exponential(1.0)])
    )
    with pytest.raises(ModelError):
        component_weights(model)


# --------------------------------------------------------------------------- #
# RESTART correctness
# --------------------------------------------------------------------------- #
def test_restart_parameter_validation():
    model = anded_model(3)
    with pytest.raises(ModelError):
        RestartSimulator(model, splitting=0)
    with pytest.raises(ModelError):
        # And-of-3 has two thresholds; three factors cannot match.
        RestartSimulator(model, splitting=[2, 2, 2])
    simulator = RestartSimulator(model)
    with pytest.raises(ModelError):
        simulator.run(100.0, 1)
    with pytest.raises(ModelError):
        simulator.run(100.0, 16, burn_in=100.0)


@pytest.mark.slow
def test_restart_is_unbiased_on_known_rare_event():
    """And-of-3 birth-death chain with closed-form unavailability."""
    rate, repair = 0.05, 1.0
    exact = (rate / (rate + repair)) ** 3
    result = RestartSimulator(anded_model(3), seed=13, splitting=4).run(
        2000.0, 2048, burn_in=200.0
    )
    assert result.interval.contains(exact), (
        f"exact {exact:.3e} outside {result.interval.describe()}"
    )
    assert not result.saturated
    assert result.levels[0].crossings > 0
    assert result.levels[-1].spawned > 0


@pytest.mark.slow
def test_restart_stopping_rule_reaches_target():
    simulator = RestartSimulator(anded_model(2, rate=0.1), seed=17, splitting=2)
    report = simulator.estimate_until(
        1000.0, rel_error=0.2, burn_in=100.0, batch_size=512
    )
    assert report.achieved
    assert report.interval.relative_half_width <= 0.2
    exact = (0.1 / 1.1) ** 2
    assert report.interval.mean == pytest.approx(exact, rel=0.5)


# --------------------------------------------------------------------------- #
# evaluator backend
# --------------------------------------------------------------------------- #
def test_evaluator_rejects_unknown_backend():
    with pytest.raises(ModelError):
        ArcadeEvaluator(anded_model(2), backend="oracle")


@pytest.mark.parametrize(
    "argument,value",
    [
        ("sim_replications", 0),
        ("sim_replications", -5),
        ("sim_horizon", math.nan),
        ("sim_horizon", math.inf),
        ("sim_horizon", 0.0),
        ("sim_confidence", 1.5),
    ],
)
def test_evaluator_rejects_bad_simulation_arguments(argument, value):
    pattern = re.escape(argument) + ".*" + re.escape(repr(value))
    with pytest.raises(ModelError, match=pattern):
        ArcadeEvaluator(anded_model(2), backend="simulate", **{argument: value})


def test_evaluator_simulate_backend_has_no_ctmc():
    evaluator = ArcadeEvaluator(anded_model(2), backend="simulate")
    with pytest.raises(ModelError):
        evaluator.ctmc


@pytest.mark.slow
def test_evaluator_simulate_backend_estimates_availability():
    exact = (0.05 / 1.05) ** 2
    evaluator = ArcadeEvaluator(
        anded_model(2),
        backend="simulate",
        sim_seed=3,
        sim_horizon=2000.0,
        sim_replications=1024,
    )
    unavailability = evaluator.unavailability()
    assert evaluator.availability() == pytest.approx(1.0 - unavailability)
    interval = evaluator.simulation_interval
    assert interval is not None
    assert interval.contains(exact)
    # The estimate is cached: asking again must not re-simulate.
    assert evaluator.unavailability() == unavailability


@pytest.mark.slow
def test_evaluator_simulate_backend_unreliability_matches_closed_form():
    # Without repair, P(system failed by T) for And-of-2 identical
    # exponentials is (1 - exp(-rate T))^2.
    rate, mission = 0.01, 100.0
    exact = (1.0 - np.exp(-rate * mission)) ** 2
    evaluator = ArcadeEvaluator(
        anded_model(2, rate=rate),
        backend="simulate",
        sim_seed=8,
        sim_replications=4096,
    )
    estimate = evaluator.unreliability(mission)
    assert evaluator.simulation_interval is not None
    assert estimate == pytest.approx(exact, rel=0.15)


# --------------------------------------------------------------------------- #
# RESTART on the paper's DDS against the compositional golden
# --------------------------------------------------------------------------- #
#: The DDS unavailability the compositional pipeline pins (≈3.5e-6).
DDS_GOLDEN_U = 1.0 - DDS_GOLDEN["availability"]
#: Steady-state run shape (hours), splitting factor and confidence level.
DDS_HORIZON, DDS_BURN_IN, DDS_SPLITTING, DDS_CONFIDENCE = 10_000.0, 500.0, 8, 0.95
#: Two-sided 95 % normal quantile.
_Z95 = 1.959963984540054


def _restart_on_dds(target: float, root_batch: int, max_roots: int):
    """Add root batches until the batch-means CI meets ``target``.

    Returns the interval, the event executions spent and the last round's
    :class:`~repro.simulation.RestartResult`.
    """
    simulator = RestartSimulator(build_dds_model(), seed=11, splitting=DDS_SPLITTING)
    parts, events = [], 0
    while True:
        result = simulator.run(
            DDS_HORIZON, root_batch, burn_in=DDS_BURN_IN, confidence=DDS_CONFIDENCE
        )
        parts.append(result.samples)
        events += result.total_events
        samples = np.concatenate(parts)
        interval = batch_means(samples, confidence=DDS_CONFIDENCE)
        if interval.relative_half_width <= target or samples.size >= max_roots:
            return interval, events, result


@pytest.mark.slow
def test_restart_covers_the_dds_golden_at_ten_percent():
    interval, _, last = _restart_on_dds(0.10, root_batch=4096, max_roots=16_384)
    assert interval.relative_half_width <= 0.10
    assert interval.contains(DDS_GOLDEN_U), (
        f"golden {DDS_GOLDEN_U:.4e} outside {interval.describe()}"
    )
    assert not last.saturated


@pytest.mark.differential
def test_restart_reaches_one_percent_with_tenfold_fewer_events_than_naive():
    """The acceptance run: a <= 1 % CI around the golden, >= 10x fewer events.

    Naive Monte Carlo here scores the down indicator of independent
    replications, so its variance is the Bernoulli U(1-U); its event count
    at the same precision is extrapolated from that variance (running it
    would take ~1e10 replications), with the per-replication cost measured
    on the engine over a horizon just past the model's mixing time.
    """
    interval, restart_events, last = _restart_on_dds(
        0.01, root_batch=120_000, max_roots=1_500_000
    )
    assert interval.relative_half_width <= 0.01
    assert interval.contains(DDS_GOLDEN_U), (
        f"golden {DDS_GOLDEN_U:.4e} outside {interval.describe()}"
    )
    assert not last.saturated

    probe = VectorisedSimulator(build_dds_model(), seed=23).run_batch(100.0, 4096)
    target_half_width = 0.01 * DDS_GOLDEN_U
    naive_roots = (_Z95 / target_half_width) ** 2 * DDS_GOLDEN_U * (1.0 - DDS_GOLDEN_U)
    naive_events = naive_roots * float(probe.events.mean())
    assert naive_events >= 10.0 * restart_events
