"""Chaos recovery suite: injected faults must not change a single bit.

The resilience contract is *recover exactly, never silently*: a pipeline
that survives a worker crash, a timed-out subtree, a corrupted cache entry
or a mid-sweep interrupt must produce results bit-identical to an
undisturbed run, and must say what happened in its statistics and
telemetry counters.  This suite drives real process pools through the
declarative fault plans of :mod:`repro.resilience.faults`.

Slow by design (worker pools, deliberate stalls); enable with
``pytest tests/chaos --run-chaos``.
"""

import pytest

from repro.arcade.semantics import translate_model
from repro.casestudies.dds import (
    DDSParameters,
    build_dds_model,
    dds_composition_order,
)
from repro.composer import QuotientCache, compose_model
from repro.ctmc import steady_state_availability
from repro.errors import CompositionError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    inject_faults,
    load_cache,
    save_cache,
)

pytestmark = pytest.mark.chaos

#: Worker count of every parallel run in this suite.
JOBS = 2

#: Generous attempt budget: a pool break bumps the attempt of innocent
#: in-flight tasks too, so a single injected crash may consume two attempts.
RECOVERY_POLICY = RetryPolicy(max_attempts=3, timeout_seconds=2.0)


def _dds(num_clusters: int = 2):
    parameters = DDSParameters(num_clusters=num_clusters)
    translated = translate_model(build_dds_model(parameters))
    return translated, dds_composition_order(translated, parameters)


def _shape_trajectory(system):
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


def _cache_contents(cache: QuotientCache) -> dict:
    return {
        key: (
            entry.automaton.summary(),
            entry.states_before,
            entry.transitions_before,
        )
        for key, entry in cache.entries().items()
    }


class TestWorkerCrashRecovery:
    def test_crash_on_first_attempt_is_bit_identical(self):
        translated, order = _dds()
        golden = compose_model(translated, order=order)

        plan = FaultPlan(
            specs=(FaultSpec(site="worker.crash", key="subtree:0", attempts=(0,)),)
        )
        with inject_faults(plan):
            recovered = compose_model(
                translated, order=order, jobs=JOBS, retry=RECOVERY_POLICY
            )

        assert recovered.ctmc.summary() == golden.ctmc.summary()
        assert steady_state_availability(
            recovered.ctmc
        ) == steady_state_availability(golden.ctmc)
        assert _shape_trajectory(recovered) == _shape_trajectory(golden)
        # Never silent: the break and the re-dispatch are on the record.
        assert recovered.statistics.pool_breaks >= 1
        assert recovered.statistics.worker_retries >= 1
        kinds = [event.kind for event in recovered.statistics.recovery_events]
        assert "pool_broken" in kinds and "retry" in kinds

    def test_repeated_crashes_end_in_serial_fallback(self):
        translated, order = _dds()
        golden = compose_model(translated, order=order)

        attempts = tuple(range(RECOVERY_POLICY.max_attempts + 1))
        plan = FaultPlan(
            specs=(FaultSpec(site="worker.crash", key="subtree:1", attempts=attempts),)
        )
        with inject_faults(plan):
            recovered = compose_model(
                translated, order=order, jobs=JOBS, retry=RECOVERY_POLICY
            )

        assert recovered.ctmc.summary() == golden.ctmc.summary()
        assert recovered.statistics.serial_fallbacks >= 1
        assert any(
            event.kind == "serial_fallback" and event.key == "subtree:1"
            for event in recovered.statistics.recovery_events
        )

    def test_disabled_fallback_propagates_the_failure(self):
        translated, order = _dds()
        policy = RetryPolicy(max_attempts=1, serial_fallback=False)
        plan = FaultPlan(
            specs=(FaultSpec(site="worker.crash", key="subtree:0", attempts=(0, 1)),)
        )
        with inject_faults(plan):
            with pytest.raises(CompositionError, match="serial fallback is disabled"):
                compose_model(translated, order=order, jobs=JOBS, retry=policy)


class TestWorkerTimeoutRecovery:
    def test_timed_out_subtree_is_retried_bit_identically(self):
        translated, order = _dds()
        golden = compose_model(translated, order=order)

        policy = RetryPolicy(max_attempts=3, timeout_seconds=0.75)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.timeout",
                    key="subtree:0",
                    attempts=(0,),
                    sleep_seconds=3.0,
                ),
            )
        )
        with inject_faults(plan):
            recovered = compose_model(
                translated, order=order, jobs=JOBS, retry=policy
            )

        assert recovered.ctmc.summary() == golden.ctmc.summary()
        assert _shape_trajectory(recovered) == _shape_trajectory(golden)
        assert recovered.statistics.worker_timeouts >= 1
        assert any(
            event.kind == "timeout" for event in recovered.statistics.recovery_events
        )

    def test_persistent_stall_falls_back_to_serial(self):
        translated, order = _dds()
        golden = compose_model(translated, order=order)

        policy = RetryPolicy(max_attempts=2, timeout_seconds=0.5)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.timeout",
                    key="subtree:0",
                    attempts=tuple(range(4)),
                    sleep_seconds=3.0,
                ),
            )
        )
        with inject_faults(plan):
            recovered = compose_model(
                translated, order=order, jobs=JOBS, retry=policy
            )

        assert recovered.ctmc.summary() == golden.ctmc.summary()
        assert recovered.statistics.serial_fallbacks >= 1


class TestAcceptanceScenario:
    """The issue's acceptance walk: crash + timeout + corrupt cache entry."""

    def test_dds_recovers_bit_identically_from_all_three(self, tmp_path):
        translated, order = _dds()
        golden_cache = QuotientCache()
        golden = compose_model(translated, order=order, cache=golden_cache)
        golden_availability = steady_state_availability(golden.ctmc)

        # One worker crashes on its first attempt, another stalls past the
        # deadline — in the same run.  (With the cache on, only the first
        # subtree of each isomorphism class is dispatched, so the faults
        # target the two lowest task ids — those always run.)
        policy = RetryPolicy(max_attempts=4, timeout_seconds=1.0)
        plan = FaultPlan(
            specs=(
                FaultSpec(site="worker.crash", key="subtree:0", attempts=(0,)),
                FaultSpec(
                    site="worker.timeout",
                    key="subtree:1",
                    attempts=(0, 1),
                    sleep_seconds=3.0,
                ),
            )
        )
        chaos_cache = QuotientCache()
        with inject_faults(plan):
            recovered = compose_model(
                translated,
                order=order,
                jobs=JOBS,
                retry=policy,
                cache=chaos_cache,
            )
        assert recovered.ctmc.summary() == golden.ctmc.summary()
        assert steady_state_availability(recovered.ctmc) == golden_availability
        assert recovered.statistics.pool_breaks >= 1
        assert recovered.statistics.worker_timeouts >= 1
        # The cache learned the same quotients despite the chaos.
        assert _cache_contents(chaos_cache) == _cache_contents(golden_cache)

        # Persist the chaos run's cache with one entry corrupted on write:
        # the load quarantines exactly that entry and the next pipeline
        # rebuilds it, landing on the same availability bit for bit.
        victim = sorted(chaos_cache.entries())[0]
        path = tmp_path / "cache.npz"
        corrupt = FaultPlan(specs=(FaultSpec(site="cache.corrupt_entry", key=victim),))
        with inject_faults(corrupt):
            save_cache(chaos_cache, path)
        restored, report = load_cache(path)
        assert report.quarantined_keys == (victim,)

        rebuilt = compose_model(translated, order=order, cache=restored)
        assert steady_state_availability(rebuilt.ctmc) == golden_availability
        assert victim in restored.entries()  # rebuilt on the miss


class TestChaosParallelConsistency:
    """Faulted parallel runs vs the fault-free parallel run, same jobs."""

    def test_seeded_fault_storm_is_bit_identical(self):
        translated, order = _dds()
        calm = compose_model(
            translated, order=order, jobs=JOBS, retry=RECOVERY_POLICY
        )

        plan = FaultPlan(
            seed=11,
            rate=0.2,
            sites=("worker.crash",),
            specs=(
                FaultSpec(
                    site="worker.timeout",
                    key="subtree:1",
                    attempts=(0,),
                    sleep_seconds=3.0,
                ),
            ),
        )
        with inject_faults(plan):
            stormy = compose_model(
                translated, order=order, jobs=JOBS, retry=RECOVERY_POLICY
            )

        assert stormy.ctmc.summary() == calm.ctmc.summary()
        assert steady_state_availability(stormy.ctmc) == steady_state_availability(
            calm.ctmc
        )
        assert _shape_trajectory(stormy) == _shape_trajectory(calm)
