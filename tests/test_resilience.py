"""The resilience layer (:mod:`repro.resilience`): fast tier-1 coverage.

Two groups:

* **crash-safe cache file** — checksummed save/load round-trips the quotient
  cache exactly (entries, sizes *and* counters), an entry corrupted on disk
  is quarantined without failing the load, and structural damage fails
  loudly;
* **sweep resilience** — failure isolation turns a budget-exceeding point
  into an error row, and an interrupted sweep resumed from its checkpoint
  produces a canonically bit-identical store.

Faults are driven from outside the pipeline: :func:`flip_entry_byte` edits a
saved archive, :func:`interrupt_sweep_at` makes one sweep point raise
``KeyboardInterrupt``, and a ``state_budget`` below a step's size trips the
budget.  The end-to-end recovery walk on the DDS lives in ``tests/chaos/``.
"""

import json
import math

import numpy as np
import pytest

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    down,
)
from repro.arcade.expressions import And
from repro.arcade.semantics import translate_model
from repro.composer import QuotientCache, compose_model
from repro.errors import CacheStoreError, StateBudgetError, SweepError
from repro.resilience import (
    CACHE_STORE_VERSION,
    SweepCheckpoint,
    load_cache,
    save_cache,
)
from repro.sweep import (
    SweepConfig,
    SweepFactory,
    canonical_store_bytes,
    driver,
    run_sweep,
)
from repro.distributions import Exponential
from repro.names import SelectedNames, rebind
from repro.resilience.diskcache import _array_fields, _checksum
from repro.sweep.driver import _config_fingerprint


# --------------------------------------------------------------------------- #
# shared fixtures
# --------------------------------------------------------------------------- #
def _pair_model(fail_a: float = 0.01, fail_b: float = 0.02) -> ArcadeModel:
    model = ArcadeModel(name="resilience_pair")
    for name, rate in (("a", fail_a), ("b", fail_b)):
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


def _pair_factory() -> SweepFactory:
    return SweepFactory(
        name="resilience_pair",
        build=lambda values: _pair_model(values["fail_a"], values["fail_b"]),
        base={"fail_a": 0.01, "fail_b": 0.02},
        rate_axes=("fail_a",),
    )


def flip_entry_byte(path, key: str) -> None:
    """Flip the last byte of entry ``key``'s interactive row offsets in the
    saved archive at ``path``, finding its slot through the archive index;
    the entry's checksum no longer matches."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    document = json.loads(bytes(members["index"]).decode())
    slot = next(entry["slot"] for entry in document["entries"] if entry["key"] == key)
    corrupted = members[f"{slot}.ii"].copy()
    corrupted.view(np.uint8)[-1] ^= 0xFF
    members[f"{slot}.ii"] = corrupted
    np.savez(path, **members)


def interrupt_sweep_at(monkeypatch, index: int) -> None:
    """Make the sweep's evaluation number ``index`` raise ``KeyboardInterrupt``
    (a user or scheduler kill) instead of evaluating the point."""
    evaluate_point = driver.evaluate_point

    def interrupted(*args, **kwargs):
        if kwargs.get("index") == index:
            raise KeyboardInterrupt(f"interrupted before point {index}")
        return evaluate_point(*args, **kwargs)

    monkeypatch.setattr(driver, "evaluate_point", interrupted)


def _populated_cache() -> QuotientCache:
    cache = QuotientCache()
    compose_model(translate_model(_pair_model()), cache=cache)
    assert cache.stores > 0
    return cache


# --------------------------------------------------------------------------- #
# crash-safe on-disk cache
# --------------------------------------------------------------------------- #
class TestCacheFile:
    def test_round_trip_restores_entries_and_counters(self, tmp_path):
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        stored = save_cache(cache, path)
        assert stored == len(cache.entries())

        restored, report = load_cache(path)
        assert report.loaded == stored
        assert report.quarantined == 0
        assert set(restored.entries()) == set(cache.entries())
        assert restored.hits == cache.hits
        assert restored.misses == cache.misses
        assert restored.stores == cache.stores
        for key, entry in cache.entries().items():
            clone = restored.entries()[key]
            assert clone.automaton.summary() == entry.automaton.summary()
            assert clone.states_before == entry.states_before
            assert clone.transitions_before == entry.transitions_before

    def test_warm_start_is_bit_identical_to_in_memory_cache(self, tmp_path):
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        restored, _ = load_cache(path)

        translated = translate_model(_pair_model())
        from_memory = compose_model(translated, cache=cache)
        from_disk = compose_model(translated, cache=restored)
        assert from_disk.ctmc.summary() == from_memory.ctmc.summary()
        assert from_disk.statistics.cache_hits == from_memory.statistics.cache_hits

    def test_injected_corruption_quarantines_only_that_entry(self, tmp_path):
        # Corrupt one chosen entry on disk: the checksum catches it
        # entry-locally and every other entry still loads.
        cache = _populated_cache()
        victim = sorted(cache.entries())[0]
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        flip_entry_byte(path, victim)

        restored, report = load_cache(path)
        assert report.quarantined == 1
        assert report.quarantined_keys == (victim,)
        assert report.loaded == len(cache.entries()) - 1
        assert victim not in restored.entries()

    def test_flipped_byte_on_disk_is_quarantined_not_crashed(self, tmp_path):
        # Corrupt the archive the blunt way, without the index (rewrite the
        # first row-offsets member's payload): the checksum must still catch
        # it entry-locally.
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        save_cache(cache, path)

        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        victim = next(name for name in members if name.endswith(".ii"))
        members[victim] = members[victim].copy()
        members[victim][-1] ^= 1
        np.savez(path, **members)

        _, report = load_cache(path)
        assert report.quarantined == 1
        assert report.loaded == len(cache.entries()) - 1

    def test_names_selected_with_gaps_round_trip(self, tmp_path):
        # Two selections over the product, each with a gap (-1, read as
        # "s<k>"): the archive keeps every index array, and the loaded entry
        # rebound to the same operands names its states as the stored one.
        cache = _populated_cache()
        key, entry = max(
            cache.entries().items(), key=lambda item: item[1].automaton.num_states
        )
        automaton = entry.automaton
        product = automaton.name_source
        while isinstance(product, SelectedNames):
            product = product.parent
        inner = np.arange(automaton.num_states)
        inner[0] = -1
        outer = np.arange(automaton.num_states)[::-1].copy()
        outer[0] = -1
        automaton.name_source = SelectedNames(
            SelectedNames(automaton.name_source, inner), outer
        )
        path = tmp_path / "cache.npz"
        save_cache(cache, path)

        restored, report = load_cache(path)
        assert report.quarantined == 0
        loaded = restored.entries()[key].automaton.name_source
        rebound = rebind(loaded, product.left, product.right)
        names = automaton.state_names
        assert names[0] == "s0" and names[-1] == "s0"  # one gap at each level
        assert rebound.names() == names

    @staticmethod
    def _rechecksummed(path, edit):
        """Apply ``edit(metadata, arrays)`` to the archive's largest entry and
        recompute its checksum, as anyone editing the file can; returns the
        edited entry's key."""
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        document = json.loads(bytes(members["index"]).decode())
        metadata = max(document["entries"], key=lambda entry: entry["num_states"])
        slot = metadata.pop("slot")
        metadata.pop("checksum")
        arrays = {
            field: members[f"{slot}.{field}"].copy() for field in _array_fields(metadata)
        }
        edit(metadata, arrays)
        for field, array in arrays.items():
            members[f"{slot}.{field}"] = array
        metadata["checksum"] = _checksum(metadata, arrays)
        metadata["slot"] = slot
        members["index"] = np.frombuffer(json.dumps(document).encode(), dtype=np.uint8)
        np.savez(path, **members)
        return metadata["key"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta, arrays: arrays["mt"].__setitem__(0, meta["num_states"] + 5),
            lambda meta, arrays: arrays["it"].__setitem__(-1, -1),
            lambda meta, arrays: arrays["ia"].__setitem__(0, 99),
            lambda meta, arrays: arrays["mr"].__setitem__(0, math.nan),
            lambda meta, arrays: arrays["mr"].__setitem__(0, 0.0),
            lambda meta, arrays: arrays["ii"].__setitem__(-1, arrays["ii"][-1] + 1),
            lambda meta, arrays: arrays["ms"].__setitem__(0, 1),
            lambda meta, arrays: meta.__setitem__("initial", meta["num_states"]),
            lambda meta, arrays: meta["labels"].__setitem__("999999", ["down"]),
            lambda meta, arrays: meta.__setitem__("num_states", meta["num_states"] + 1),
            lambda meta, arrays: arrays["n0"].__setitem__(0, -2),
            lambda meta, arrays: arrays.update(n0=arrays["n0"][:-1], n1=arrays["n1"][:-1]),
        ],
        ids=[
            "markovian-target",
            "interactive-target",
            "action-id",
            "nan-rate",
            "zero-rate",
            "indptr-end",
            "source-not-expansion",
            "initial",
            "label-state",
            "state-count",
            "name-index",
            "name-length",
        ],
    )
    def test_rechecksummed_invalid_entry_is_quarantined(self, tmp_path, edit):
        # The checksum is unkeyed, so an edited entry can carry a valid one;
        # the structural checks must still keep it out of the pipeline.
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        victim = self._rechecksummed(path, edit)
        restored, report = load_cache(path)
        assert report.quarantined_keys == (victim,)
        assert report.loaded == len(cache.entries()) - 1
        assert victim not in restored.entries()

    def test_rechecksummed_valid_edit_loads(self, tmp_path):
        # What the checks cannot catch: a structurally valid edit (a changed
        # rate) loads, which is why a cache file is trusted input.
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        victim = self._rechecksummed(
            path, lambda meta, arrays: arrays["mr"].__setitem__(0, 123.0)
        )
        restored, report = load_cache(path)
        assert report.quarantined == 0
        rates = restored.entries()[victim].automaton.index().markovian_csr.rate
        assert rates[0] == 123.0

    def test_missing_and_malformed_files_fail_loudly(self, tmp_path):
        with pytest.raises(CacheStoreError, match="cannot read"):
            load_cache(tmp_path / "nothing.npz")
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"not a zip archive")
        with pytest.raises(CacheStoreError):
            load_cache(bogus)

    def test_wrong_format_tag_is_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(
            path,
            index=np.frombuffer(b'{"format": "something-else"}', dtype=np.uint8),
        )
        with pytest.raises(CacheStoreError, match="unknown format"):
            load_cache(path)

    @staticmethod
    def _archive_claiming_version(path, version):
        save_cache(_populated_cache(), path)
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        document = json.loads(bytes(members["index"]).decode())
        assert document["version"] == CACHE_STORE_VERSION == 4
        document["version"] = version
        members["index"] = np.frombuffer(json.dumps(document).encode(), dtype=np.uint8)
        np.savez(path, **members)

    def test_version_1_archive_is_refused(self, tmp_path):
        # Version-1 archives recorded the size of the full product, not of
        # the maximal-progress product a step now builds.
        path = tmp_path / "cache.npz"
        self._archive_claiming_version(path, 1)
        with pytest.raises(CacheStoreError, match="unsupported version 1 "):
            load_cache(path)

    def test_version_2_archive_is_refused(self, tmp_path):
        # Version-2 result keys ended in a vanishing-elimination flag that
        # no key carries any more.
        path = tmp_path / "cache.npz"
        self._archive_claiming_version(path, 2)
        with pytest.raises(CacheStoreError, match="unsupported version 2 "):
            load_cache(path)

    def test_version_3_archive_is_refused(self, tmp_path):
        # Version-3 archives stored each entry's state names as a list,
        # which named a hit's states after the replica that stored it.
        path = tmp_path / "cache.npz"
        self._archive_claiming_version(path, 3)
        with pytest.raises(CacheStoreError, match="unsupported version 3 "):
            load_cache(path)

    def test_load_into_existing_cache_merges_counters(self, tmp_path):
        cache = _populated_cache()
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        target = QuotientCache()
        merged, report = load_cache(path, target)
        assert merged is target
        assert target.stores == cache.stores
        assert report.loaded == len(cache.entries())


# --------------------------------------------------------------------------- #
# state budget
# --------------------------------------------------------------------------- #
class TestStateBudget:
    def test_budget_excess_raises_with_step_context(self):
        translated = translate_model(_pair_model())
        with pytest.raises(StateBudgetError, match="exceeds the state budget"):
            compose_model(translated, state_budget=2)

    def test_generous_budget_changes_nothing(self):
        translated = translate_model(_pair_model())
        plain = compose_model(translated)
        bounded = compose_model(translated, state_budget=10**9)
        assert bounded.ctmc.summary() == plain.ctmc.summary()


# --------------------------------------------------------------------------- #
# sweep resilience: isolation + checkpoint/resume
# --------------------------------------------------------------------------- #
def _sweep_config(**overrides) -> SweepConfig:
    base = dict(
        grid={"fail_a": [0.01, 0.02], "fail_b": [0.02, 0.03]},
        cache="on",
        importance=False,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepFailureIsolation:
    def test_budget_errors_become_error_rows(self):
        result = run_sweep(
            _pair_factory(), _sweep_config(isolate_failures=True, state_budget=2)
        )
        assert set(result.points["status"]) == {"error"}
        assert result.manifest["totals"]["errors"] == len(result.points)
        assert all("StateBudgetError" in text for text in result.points["error"])
        assert all(math.isnan(value) for value in result.points["availability"])
        assert result.manifest["distributions"] == {}

    def test_without_isolation_the_sweep_dies(self):
        with pytest.raises(StateBudgetError):
            run_sweep(_pair_factory(), _sweep_config(state_budget=2))

    def test_ok_rows_report_status_ok(self):
        result = run_sweep(_pair_factory(), _sweep_config(isolate_failures=True))
        assert set(result.points["status"]) == {"ok"}
        assert result.manifest["totals"]["errors"] == 0
        assert all(text == "" for text in result.points["error"])


class TestSweepCheckpointResume:
    def test_interrupted_then_resumed_is_canonically_bit_identical(
        self, tmp_path, monkeypatch
    ):
        golden = run_sweep(_pair_factory(), _sweep_config())
        checkpoint = str(tmp_path / "sweep")

        with monkeypatch.context() as patched:
            interrupt_sweep_at(patched, 3)
            with pytest.raises(KeyboardInterrupt):
                run_sweep(_pair_factory(), _sweep_config(checkpoint=checkpoint))
        assert (tmp_path / "sweep.ckpt.npz").exists()
        assert (tmp_path / "sweep.ckpt.cache.npz").exists()

        resumed = run_sweep(
            _pair_factory(), _sweep_config(checkpoint=checkpoint, resume=True)
        )
        assert canonical_store_bytes(resumed) == canonical_store_bytes(golden)
        # The replayed rows carry the recorded cache deltas, and the first
        # live point continues from the restored cache state.
        assert list(resumed.points["cache_hits"]) == list(golden.points["cache_hits"])

    def test_resume_of_a_completed_sweep_is_a_full_replay(self, tmp_path):
        checkpoint = str(tmp_path / "sweep")
        first = run_sweep(_pair_factory(), _sweep_config(checkpoint=checkpoint))
        again = run_sweep(
            _pair_factory(), _sweep_config(checkpoint=checkpoint, resume=True)
        )
        assert canonical_store_bytes(again) == canonical_store_bytes(first)

    def test_resume_without_checkpoint_path_is_rejected(self):
        with pytest.raises(SweepError, match="checkpoint path"):
            run_sweep(_pair_factory(), _sweep_config(resume=True))

    def test_reconfigured_sweep_refuses_the_checkpoint(self, tmp_path, monkeypatch):
        checkpoint = str(tmp_path / "sweep")
        with monkeypatch.context() as patched:
            interrupt_sweep_at(patched, 2)
            with pytest.raises(KeyboardInterrupt):
                run_sweep(_pair_factory(), _sweep_config(checkpoint=checkpoint))
        with pytest.raises(SweepError, match="different sweep configuration"):
            run_sweep(
                _pair_factory(),
                _sweep_config(
                    grid={"fail_a": [0.5]}, checkpoint=checkpoint, resume=True
                ),
            )

    def test_fingerprint_of_a_fixed_config_is_pinned(self):
        # Checkpoints written before the sweep manifest lost its "jobs" key
        # hashed the block without it, so they must still resume.
        fingerprint = _config_fingerprint(
            _pair_factory(), _sweep_config(), ["fail_a", "fail_b"], ["fail_a"]
        )
        assert fingerprint == (
            "e00dbb2e0e6287819286b40a048e51857107ed672f64e0142dc57ad10e6b1330"
        )

    def test_checkpoint_clear_removes_both_files(self, tmp_path):
        checkpoint = SweepCheckpoint(
            tmp_path / "sweep", fingerprint="f", axes=["fail_a"]
        )
        assert not checkpoint.exists()
        checkpoint.clear()  # missing files are fine
        from repro.sweep import PointResult

        row = PointResult(
            index=0,
            kind="grid",
            values={"fail_a": 0.01},
            seed=1,
            backend="compose",
            availability=1.0,
            unavailability=0.0,
            unreliability=math.nan,
            sim_half_width=math.nan,
            ctmc_states=3,
            ctmc_transitions=4,
            largest_intermediate_states=5,
            cache_hits=0,
            cache_misses=1,
            seconds=0.1,
        )
        checkpoint.write([row], None)
        assert checkpoint.exists()
        loaded, report = checkpoint.load(None)
        assert report is None
        assert len(loaded) == 1
        assert loaded[0].values == {"fail_a": 0.01}
        assert loaded[0].availability == 1.0
        assert loaded[0].status == "ok"
        checkpoint.clear()
        assert not checkpoint.exists()
