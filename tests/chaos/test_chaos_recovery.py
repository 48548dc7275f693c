"""Chaos recovery suite: a corrupted cache file must not change a single bit.

The resilience contract is *recover exactly, never silently*: a pipeline
that survives a corrupted cache entry must produce results bit-identical to
an undisturbed run, and must say what happened (a quarantine report).  The
mid-sweep interrupt and resume is checked in ``tests/test_resilience.py``
(``TestSweepCheckpointResume``).  This suite corrupts the saved archive on
disk and runs the serial pipeline on what loads.

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
from repro.resilience import load_cache, save_cache

from test_resilience import flip_entry_byte

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

        # Persist the cache and corrupt one entry on disk: the load
        # quarantines exactly that entry and the next pipeline rebuilds it,
        # landing on the same availability and state names bit for bit.
        victim = sorted(cache.entries())[0]
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        flip_entry_byte(path, victim)
        restored, report = load_cache(path)
        assert report.quarantined_keys == (victim,)

        rebuilt = compose_model(translated, order=order, cache=restored)
        assert rebuilt.ctmc.summary() == golden.ctmc.summary()
        assert steady_state_availability(rebuilt.ctmc) == golden_availability
        assert rebuilt.ioimc.state_names == golden.ioimc.state_names
        assert victim in restored.entries()  # rebuilt on the miss
