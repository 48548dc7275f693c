"""Chaos recovery suite: injected faults must not change a single bit.

The resilience contract is *recover exactly, never silently*: a pipeline
that survives a corrupted cache entry or a mid-sweep interrupt must produce
results bit-identical to an undisturbed run, and must say what happened (a
quarantine report, a checkpoint).  This suite drives the serial pipeline
through the declarative fault plans of :mod:`repro.resilience.faults`.

Enable with ``pytest tests/chaos --run-chaos``.
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
from repro.distributions import Exponential
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    inject_faults,
    load_cache,
    save_cache,
)
from repro.sweep import SweepConfig, SweepFactory, canonical_store_bytes, run_sweep

pytestmark = pytest.mark.chaos


def _dds(num_clusters: int = 2):
    parameters = DDSParameters(num_clusters=num_clusters)
    translated = translate_model(build_dds_model(parameters))
    return translated, dds_composition_order(translated, parameters)


class TestAcceptanceScenario:
    def test_dds_recovers_bit_identically_from_a_corrupted_cache_entry(self, tmp_path):
        translated, order = _dds()
        cache = QuotientCache()
        golden = compose_model(translated, order=order, cache=cache)
        golden_availability = steady_state_availability(golden.ctmc)

        # Persist the cache with one entry corrupted on write: the load
        # quarantines exactly that entry and the next pipeline rebuilds it,
        # landing on the same availability bit for bit.
        victim = sorted(cache.entries())[0]
        path = tmp_path / "cache.npz"
        corrupt = FaultPlan(specs=(FaultSpec(site="cache.corrupt_entry", key=victim),))
        with inject_faults(corrupt):
            save_cache(cache, path)
        restored, report = load_cache(path)
        assert report.quarantined_keys == (victim,)

        rebuilt = compose_model(translated, order=order, cache=restored)
        assert rebuilt.ctmc.summary() == golden.ctmc.summary()
        assert steady_state_availability(rebuilt.ctmc) == golden_availability
        assert victim in restored.entries()  # rebuilt on the miss


# --------------------------------------------------------------------------- #
# sweep under chaos: interrupt + resume
# --------------------------------------------------------------------------- #
def _pair_factory() -> SweepFactory:
    from repro.arcade import (
        ArcadeModel,
        BasicComponent,
        RepairStrategy,
        RepairUnit,
        down,
    )
    from repro.arcade.expressions import And

    def build(values):
        model = ArcadeModel(name="chaos_pair")
        for name, rate in (("a", values["fail_a"]), ("b", values["fail_b"])):
            model.add_component(
                BasicComponent(
                    name,
                    time_to_failures=Exponential(rate),
                    time_to_repairs=Exponential(1.0),
                )
            )
        model.add_repair_unit(RepairUnit("rep", ["a", "b"], RepairStrategy.FCFS))
        model.set_system_down(And([down("a"), down("b")]))
        return model

    return SweepFactory(
        name="chaos_pair",
        build=build,
        base={"fail_a": 0.01, "fail_b": 0.02},
        rate_axes=("fail_a",),
    )


def test_sweep_survives_an_interrupt_then_resumes_identically(tmp_path):
    def config(**overrides):
        base = dict(
            grid={"fail_a": [0.01, 0.02], "fail_b": [0.02, 0.03]},
            cache="on",
            importance=False,
        )
        base.update(overrides)
        return SweepConfig(**base)

    golden = run_sweep(_pair_factory(), config())

    checkpoint = str(tmp_path / "sweep")
    interrupt = FaultPlan(specs=(FaultSpec(site="sweep.interrupt", key="point:3"),))
    with inject_faults(interrupt):
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_pair_factory(), config(checkpoint=checkpoint))

    resumed = run_sweep(_pair_factory(), config(checkpoint=checkpoint, resume=True))
    assert canonical_store_bytes(resumed) == canonical_store_bytes(golden)
