"""The isomorphism-aware quotient cache (:mod:`repro.composer.cache`).

Three layers:

* **bit-identity** — a cached pipeline must reproduce the uncached one
  exactly: same per-step state/transition trajectory, same final CTMC, the
  same measure to the last bit (the broad randomised sweep lives in
  ``tests/differential/test_cache_differential.py``);
* **hits where expected** — the replicated DDS/RCS subtrees must actually
  be served from the cache, both within one run and across the runs sharing
  a cache (the evaluator's availability + no-repair reliability pipelines);
* **policy plumbing** — the ``cache=`` argument resolution, the persisted
  step-key format, and the persisted cost-parameter loop of the planner.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.arcade.semantics import translate_model
from repro.casestudies.dds import (
    DDSParameters,
    build_dds_evaluator,
    build_dds_model,
    dds_composition_order,
    dds_sweep_factory,
)
from repro.casestudies.dds import MISSION_TIME_HOURS as DDS_MISSION_TIME
from repro.casestudies.rcs import build_rcs_modular_evaluator
from repro.composer import Composer, QuotientCache, compose_model, resolve_cache
from repro.composer.cache import StepPlan, StepSkeleton, _position_probe, structure_key
from repro.ctmc import steady_state_availability
from repro.ioimc import IOIMC
from repro.sweep import SweepConfig, run_sweep, verify_bit_identical
from test_golden_regression import DDS_GOLDEN, RCS_GOLDEN


def _trajectory(system):
    return [
        (
            step.states_before_reduction,
            step.transitions_before_reduction,
            step.states_after_reduction,
            step.transitions_after_reduction,
            step.hidden_actions,
        )
        for step in system.statistics.steps
    ]


def _small_dds(num_clusters: int = 2):
    parameters = DDSParameters(num_clusters=num_clusters)
    translated = translate_model(build_dds_model(parameters))
    return translated, dds_composition_order(translated, parameters)


class TestCachedPipelineIsBitIdentical:
    @pytest.mark.parametrize("reduction", ["strong", "weak", "branching"])
    def test_small_dds_trajectory_and_measures(self, reduction):
        translated, order = _small_dds()
        off = compose_model(translated, order=order, reduction=reduction)
        on = compose_model(translated, order=order, reduction=reduction, cache="on")
        assert _trajectory(on) == _trajectory(off)
        assert on.ctmc.summary() == off.ctmc.summary()
        assert steady_state_availability(on.ctmc) == steady_state_availability(off.ctmc)
        assert on.statistics.cache_hits > 0

    def test_hit_steps_record_saved_seconds_and_sizes(self):
        translated, order = _small_dds()
        system = compose_model(translated, order=order, cache="on")
        hits = [step for step in system.statistics.steps if step.cache_hit]
        assert hits, "the second cluster/controller set must hit"
        for step in hits:
            assert step.reduce_seconds == 0.0
            assert step.saved_seconds >= 0.0
            assert step.states_before_reduction > 0
        assert system.statistics.cache_saved_seconds == pytest.approx(
            sum(step.saved_seconds for step in hits)
        )

    def test_cache_counters_stay_consistent(self):
        """The run's statistics, the cache's own counter and the per-step
        hit flags agree, on the hierarchical and the planned order."""
        translated, order = _small_dds()
        for run_order in (order, "auto"):
            system = compose_model(translated, order=run_order, cache="on")
            hit_steps = [step for step in system.statistics.steps if step.cache_hit]
            assert system.statistics.cache_hits == len(hit_steps)
            assert system.cache.hits == len(hit_steps)
            assert system.statistics.cache_saved_seconds == pytest.approx(
                sum(step.saved_seconds for step in hit_steps)
            )


class TestAboveLeafCacheHits:
    def test_auto_order_records_a_composite_level_hit(self):
        """Planner pairing makes at least one above-leaf join (both operands
        composite) a cache hit on the 2-cluster DDS auto order."""
        translated, _ = _small_dds()
        system = compose_model(translated, order="auto", cache="on")
        assert any(
            step.cache_hit and min(step.operand_blocks) > 1
            for step in system.statistics.steps
        )


class TestCacheSharing:
    def test_second_run_is_served_from_the_shared_cache(self):
        translated, order = _small_dds()
        cache = QuotientCache()
        composer = Composer(translated, order=order, cache=cache)
        first = composer.compose()
        second = composer.compose()
        assert _trajectory(second) == _trajectory(first)
        # Every step of the re-run is a hit: the cache survives compose().
        assert second.statistics.cache_hits == len(second.statistics.steps)

    def test_evaluator_shares_the_cache_across_pipelines(self):
        evaluator = build_dds_evaluator(DDSParameters(num_clusters=2), cache="on")
        reference = build_dds_evaluator(DDSParameters(num_clusters=2))
        assert evaluator.availability() == reference.availability()
        assert evaluator.reliability(10.0) == reference.reliability(10.0)
        assert evaluator.cache is not None
        assert evaluator.cache.hits > 0
        # Both the repairable and the no-repair pipeline used the same cache.
        assert evaluator.composed.cache is evaluator.composed_without_repair.cache

    def test_saved_seconds_reconcile_with_per_run_statistics(self):
        """Lifetime vs per-run savings agree (the double-counting bugfix).

        ``QuotientCache.saved_seconds`` is the *lifetime net* savings of the
        cache — for every hit, the stored entry's original cost minus the
        time spent serving the hit — and ``cache_saved_seconds`` is the same
        quantity per compose() run, so across any number of runs sharing one
        cache the lifetime total is exactly the sum of the per-run totals.
        """
        translated, order = _small_dds()
        cache = QuotientCache()
        composer = Composer(translated, order=order, cache=cache)
        first = composer.compose()
        second = composer.compose()
        per_run = (
            first.statistics.cache_saved_seconds
            + second.statistics.cache_saved_seconds
        )
        assert cache.saved_seconds == pytest.approx(per_run)
        assert cache.summary()["saved_seconds"] == round(cache.saved_seconds, 4)
        # Net semantics: a hit can never be booked as saving more than the
        # stored entry originally cost.
        for system in (first, second):
            for step in system.statistics.steps:
                if step.cache_hit:
                    assert step.saved_seconds >= 0.0

    def test_resolve_cache_policies(self):
        assert resolve_cache(None) is None
        assert resolve_cache("off") is None
        assert isinstance(resolve_cache("on"), QuotientCache)
        cache = QuotientCache()
        assert resolve_cache(cache) is cache
        with pytest.raises(ValueError):
            resolve_cache("sometimes")


@pytest.mark.slow
class TestCachedGoldens:
    """The pinned case-study numbers, with the cache enabled."""

    def test_dds_golden_with_cache(self):
        evaluator = build_dds_evaluator(cache="on")
        assert evaluator.availability() == pytest.approx(
            DDS_GOLDEN["availability"], rel=1e-12
        )
        statistics = evaluator.composed.statistics
        assert evaluator.ctmc.num_states == DDS_GOLDEN["ctmc_states"]
        assert evaluator.ctmc.num_transitions == DDS_GOLDEN["ctmc_transitions"]
        assert (
            statistics.largest_intermediate_states
            == DDS_GOLDEN["largest_intermediate_states"]
        )
        assert len(statistics.steps) == DDS_GOLDEN["composition_steps"]
        # 5 of 6 clusters and 1 of 2 controller sets are replicas: the cache
        # must serve their whole subtrees.
        assert statistics.cache_hits >= 20

    def test_rcs_golden_with_cache(self):
        modular = build_rcs_modular_evaluator(cache="on")
        pumps = modular.evaluators["pumps"]
        heat = modular.evaluators["heat_exchange"]
        assert pumps.ctmc.num_states == RCS_GOLDEN["pump_ctmc_states"]
        assert pumps.ctmc.num_transitions == RCS_GOLDEN["pump_ctmc_transitions"]
        assert heat.ctmc.num_states == RCS_GOLDEN["heat_ctmc_states"]
        assert heat.ctmc.num_transitions == RCS_GOLDEN["heat_ctmc_transitions"]
        assert pumps.unavailability() == pytest.approx(
            RCS_GOLDEN["pump_unavailability"], rel=1e-12
        )
        assert heat.unavailability() == pytest.approx(
            RCS_GOLDEN["heat_unavailability"], rel=1e-12
        )
        assert modular.cache is not None and modular.cache.hits > 0

    def test_dds_planned_order_with_cache_matches_golden(self):
        evaluator = build_dds_evaluator(order="auto", cache="on")
        assert evaluator.availability() == pytest.approx(
            DDS_GOLDEN["availability"], abs=1e-9
        )
        assert evaluator.ctmc.num_states == DDS_GOLDEN["ctmc_states"]
        assert evaluator.composed.statistics.cache_hits > 0


class TestResultKeyFormat:
    """Persisted caches (``--cache-file`` archives, sweep checkpoints) are
    keyed by these strings; changing the format orphans every stored entry."""

    @pytest.mark.parametrize("reduction", ["strong", "weak", "branching"])
    def test_key_is_plan_base_and_mode(self, reduction):
        plan = StepPlan(base="0123abcd", slots=("a", "b"))
        key = QuotientCache.result_key(plan, reduction=reduction)
        assert key == plan.base + f"|{reduction}"


class TestRateReuse:
    """Rate-only misses re-gather a stored step skeleton (docs/caching.md)."""

    def test_single_dds_evaluation_stores_no_skeleton(self):
        evaluator = build_dds_evaluator(cache="on")
        evaluator.availability()
        evaluator.reliability(DDS_MISSION_TIME)
        summary = evaluator.cache.summary()
        assert summary["misses"] > 0
        assert (summary["skeleton_stores"], summary["regathers"]) == (0, 0)
        assert not evaluator.cache._skeletons

    def test_three_point_sweep_regathers_bit_identically(self):
        factory = dds_sweep_factory()
        base = {**factory.base, "num_clusters": 2.0, "disks_per_cluster": 3.0}
        factory = dataclasses.replace(factory, base=base)
        rate = base["disk_failure_rate"]
        cache = QuotientCache()
        config = SweepConfig(
            grid={"disk_failure_rate": [rate, 2.0 * rate, 4.0 * rate]},
            sensitivity_axes=(),
            importance=False,
            cache=cache,
            mission_time=DDS_MISSION_TIME,
        )
        result = run_sweep(factory, config)
        assert cache.skeleton_stores > 0
        assert cache.regathers > 0
        assert result.manifest["cache"]["regathers"] == cache.regathers
        report = verify_bit_identical(factory, result, config)
        assert report["checked"] == 3
        assert report["identical"], report

        # Every leaf the sweep fingerprinted is a memoised block, so points
        # share their leaves' fingerprints.
        gc.collect()
        memoised = {id(block) for block in cache.blocks.values()}
        leaves = list(cache._leaf_fingerprints.keys())
        assert leaves
        assert all(id(leaf) in memoised for leaf in leaves)

        # The leaf-fingerprint memo holds its leaves weakly: the leaves of a
        # translation built without the block memo are fingerprinted, and
        # once that translation is dropped they leave the memo again.
        translated = translate_model(factory.build(base))
        compose_model(translated, order=factory.order(translated, base), cache=cache)
        fresh = [weakref.ref(block) for block in translated.blocks.values()]
        assert any(ref() in cache._leaf_fingerprints for ref in fresh)
        del translated
        gc.collect()
        assert all(ref() is None for ref in fresh)
        assert len(cache._leaf_fingerprints) == len(leaves)

    def test_structure_key_covers_structure_but_not_rates_names_or_labels(self):
        translated, _ = _small_dds()
        block, other = translated.blocks["d_1"], translated.blocks["cluster_rep_1"]

        def key(left, hidden=()):
            return structure_key(left, other, list(hidden))

        def variant(markovian, names=None, labels=None):
            return IOIMC(
                block.name,
                block.signature,
                block.num_states,
                block.initial,
                block.interactive,
                markovian,
                block.labels if labels is None else labels,
                names,
            )

        rows = block.markovian
        base = key(block)
        doubled = [[(2.0 * rate, target) for rate, target in row] for row in rows]
        renamed = [f"x{state}" for state in block.states()]
        assert key(variant(doubled, renamed, {0: frozenset({"down"})})) == base
        state = next(state for state, row in enumerate(rows) if row)
        (rate, target), *rest = rows[state]
        moved = list(rows)
        moved[state] = [(rate, (target + 1) % block.num_states), *rest]
        assert key(variant(moved)) != base
        assert key(block, hidden=sorted(block.signature.outputs)[:1]) != base

    @pytest.mark.parametrize("names", [("cluster_rep_1", "d_1"), ("d_1", "_sys")])
    def test_position_probe_yields_exact_edge_positions(self, names):
        translated, _ = _small_dds()
        left, right = (translated.blocks[name] for name in names)
        composer = Composer(translated)
        hidable = composer._hidable_signals(
            left.signature, right.signature, frozenset(names)
        )
        left_edges = left.index().markovian_csr.num_edges
        right_edges = right.index().markovian_csr.num_edges
        probe = _position_probe(right, left_edges)
        assert probe.index().markovian_csr.rate.tolist() == list(
            range(left_edges + 1, left_edges + right_edges + 1)
        )

        probed = []

        def prefix(probe_left, probe_right):
            built = composer._build_prefix(probe_left, probe_right, hidable, "step")
            probed.append(built[0].index().markovian_csr.rate)
            return built

        skeleton = StepSkeleton.probe(left, right, prefix)
        (rate,) = probed
        assert len(rate) > 0
        assert np.array_equal(rate, np.floor(rate))
        assert 1 <= rate.min() and rate.max() <= left_edges + right_edges
        assert np.array_equal(skeleton.origin, rate.astype(np.int64) - 1)

        cold, states, transitions = composer._build_prefix(left, right, hidable, "step")
        warm = skeleton.regather(left, right, "step")
        assert (skeleton.states_before, skeleton.transitions_before) == (states, transitions)
        assert warm.index().markovian_csr.rate.tobytes() == (
            cold.index().markovian_csr.rate.tobytes()
        )
        assert warm.state_names == cold.state_names
        assert list(warm.labels.items()) == list(cold.labels.items())
