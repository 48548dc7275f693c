"""Parallel subtree aggregation: determinism and statistics invariants.

``Composer(jobs=N)`` composes, hides and reduces the independent subtrees of
the planned order in worker processes, merges the per-worker quotient-cache
entries and statistics back into the parent, and walks the join spine
serially.  These tests pin the contract that parallelism is *pure speed-up*:

* the composed system — every step's shape and sizes, the final CTMC and
  the measures — is bit-identical for ``jobs`` in {1, 2, 4}, cache on and
  off;
* the merged statistics stay internally consistent (``cache.hits`` equals
  the number of hit steps, ``jobs`` records the worker count actually
  used).

Cache-*hit flags* are pinned on hierarchical orders, where the dispatch
reproduces the serial hit pattern exactly.  On planner-paired ("auto")
orders the flags are strategy-dependent — a worker starts with a cold local
cache while the parent's spine joins see every worker's entries — so there
only the flag-free trajectory and the result are compared.
"""

import pytest

from repro.arcade.semantics import translate_model
from repro.casestudies.dds import (
    DDSParameters,
    build_dds_evaluator,
    build_dds_model,
    dds_composition_order,
)
from repro.composer import Composer, compose_model
from repro.errors import CompositionError
from repro.ctmc import steady_state_availability

JOBS = [1, 2, 4]


def _shape_trajectory(system):
    """Everything about a step except timings and cache bookkeeping."""
    return [
        (
            step.description,
            step.operand_blocks,
            step.states_before_reduction,
            step.transitions_before_reduction,
            step.states_after_reduction,
            step.transitions_after_reduction,
            step.hidden_actions,
        )
        for step in system.statistics.steps
    ]


def _full_trajectory(system):
    """Shape trajectory plus the cache-hit flags."""
    return [
        (shape, step.cache_hit)
        for shape, step in zip(_shape_trajectory(system), system.statistics.steps)
    ]


@pytest.fixture(scope="module")
def small_dds():
    parameters = DDSParameters(num_clusters=2)
    translated = translate_model(build_dds_model(parameters))
    return translated, dds_composition_order(translated, parameters)


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("cache", [None, "on"])
    def test_hierarchical_order_is_bit_identical_across_jobs(self, small_dds, cache):
        translated, order = small_dds
        reference = compose_model(translated, order=order, cache=cache)
        for jobs in JOBS[1:]:
            parallel = compose_model(translated, order=order, cache=cache, jobs=jobs)
            assert _full_trajectory(parallel) == _full_trajectory(reference)
            assert parallel.ctmc.summary() == reference.ctmc.summary()
            assert steady_state_availability(parallel.ctmc) == steady_state_availability(
                reference.ctmc
            )

    def test_planned_order_matches_modulo_hit_flags(self, small_dds):
        translated, _ = small_dds
        reference = compose_model(translated, order="auto", cache="on")
        parallel = compose_model(translated, order="auto", cache="on", jobs=2)
        assert _shape_trajectory(parallel) == _shape_trajectory(reference)
        assert parallel.ctmc.summary() == reference.ctmc.summary()
        assert steady_state_availability(parallel.ctmc) == steady_state_availability(
            reference.ctmc
        )

    def test_evaluator_forwards_jobs(self, small_dds):
        parameters = DDSParameters(num_clusters=2)
        serial = build_dds_evaluator(parameters)
        parallel = build_dds_evaluator(parameters, jobs=2)
        assert parallel.availability() == serial.availability()
        assert parallel.reliability(10.0) == serial.reliability(10.0)
        assert parallel.composed.statistics.jobs == 2


class TestMergedStatistics:
    def test_cache_counters_stay_consistent(self, small_dds):
        translated, order = small_dds
        for jobs in JOBS:
            system = compose_model(translated, order=order, cache="on", jobs=jobs)
            hit_steps = sum(1 for step in system.statistics.steps if step.cache_hit)
            assert system.statistics.cache_hits == hit_steps
            assert system.cache.hits == hit_steps
            assert system.statistics.cache_saved_seconds == pytest.approx(
                sum(s.saved_seconds for s in system.statistics.steps if s.cache_hit)
            )

    def test_jobs_field_records_workers_used(self, small_dds):
        translated, order = small_dds
        serial = compose_model(translated, order=order)
        assert serial.statistics.jobs == 1
        parallel = compose_model(translated, order=order, jobs=4)
        assert parallel.statistics.jobs > 1
        # Never more workers than dispatchable subtrees or than requested.
        assert parallel.statistics.jobs <= 4

    def test_step_counts_are_job_independent(self, small_dds):
        translated, order = small_dds
        counts = {
            jobs: len(compose_model(translated, order=order, jobs=jobs).statistics.steps)
            for jobs in JOBS
        }
        assert len(set(counts.values())) == 1


class TestAboveLeafCacheHits:
    def test_auto_order_records_a_composite_level_hit(self, small_dds):
        """The ISSUE acceptance criterion: planner pairing makes at least one
        above-leaf join (both operands composite) a cache hit on the
        2-cluster DDS auto order."""
        translated, _ = small_dds
        system = compose_model(translated, order="auto", cache="on")
        assert any(
            step.cache_hit and min(step.operand_blocks) > 1
            for step in system.statistics.steps
        )


class TestGuards:
    def test_jobs_must_be_positive(self, small_dds):
        translated, order = small_dds
        with pytest.raises(CompositionError):
            Composer(translated, order=order, jobs=0)
