"""Memoised block translation against fresh translation: bit-identical.

Translations that share a ``blocks`` memo (see ``docs/caching.md``,
"Lifetime") get a stored block back wherever a translator key repeats.
Every block served that way must equal a fresh translation byte for byte:
names, signature, initial state, labels, state names and every CSR column,
rate bits included.  Three families go through one memo each:

1. every model of the 54-model corpus and its no-repair model, interleaved
   across models, then again in reverse order so every key is served;
2. every point of the DDS sweep's 3 x 3 x 3 rate grid (2 clusters x 3
   disks), with its no-repair model;
3. variants in which only the failure modes of watched components change,
   so the watchers' own specs stay equal while the signals they read do
   not.

Run with ``pytest tests/differential/test_translation_reuse.py --run-differential``.
"""

import itertools

import pytest

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    down,
    spare_group,
)
from repro.arcade.operational_modes import on_off_group
from repro.arcade.semantics import translate_model
from repro.casestudies.dds import dds_sweep_factory
from repro.distributions import Exponential

from .test_differential import CORPUS, build_model
from .test_rate_reuse import ioimc_bytes

pytestmark = pytest.mark.differential


def assert_memo_matches_fresh(models) -> None:
    memo: dict = {}
    served_total = 0
    for model in models:
        served = translate_model(model, blocks=memo).blocks
        fresh = translate_model(model).blocks
        assert list(served) == list(fresh)
        for name, block in fresh.items():
            assert ioimc_bytes(served[name]) == ioimc_bytes(block), (model.name, name)
        served_total += len(served)
    assert len(memo) < served_total, "the memo never served a block"


def with_no_repair(models):
    return [variant for model in models for variant in (model, model.without_repair())]


def test_corpus_through_one_memo():
    models = with_no_repair([build_model(family, seed) for family, seed in CORPUS])
    assert_memo_matches_fresh(models + models[::-1])


def test_dds_sweep_grid_through_one_memo():
    factory = dds_sweep_factory()
    base = {**factory.base, "num_clusters": 2.0, "disks_per_cluster": 3.0}
    axes = [[base[axis] * scale for scale in (0.5, 1.0, 2.0)] for axis in factory.rate_axes]
    points = [
        factory.build({**base, **dict(zip(factory.rate_axes, values))})
        for values in itertools.product(*axes)
    ]
    assert len(points) == 27
    assert_memo_matches_fresh(with_no_repair(points))


def neighbour_variant(primary_modes: int, spare_modes: int) -> ArcadeModel:
    """Primary ``p`` with spares ``s1``/``s2`` and ``w``, which is off while
    ``p`` is down.  Only the failure-mode counts vary: the specs of ``w`` and
    of the SMU are the same in every variant, the signals they watch are not."""
    model = ArcadeModel(name=f"neighbours_{primary_modes}_{spare_modes}")

    def modes(count: int) -> tuple[float, ...]:
        return (1.0 / count,) * count

    model.add_component(
        BasicComponent(
            "p",
            Exponential(0.01),
            failure_mode_probabilities=modes(primary_modes),
            time_to_repairs=Exponential(1.0),
        )
    )
    for name in ("s1", "s2"):
        model.add_component(
            BasicComponent(
                name,
                [Exponential(0.02), Exponential(0.02)],
                operational_modes=[spare_group()],
                failure_mode_probabilities=modes(spare_modes),
                time_to_repairs=Exponential(1.0),
            )
        )
    model.add_component(
        BasicComponent(
            "w",
            Exponential(0.03),
            operational_modes=[on_off_group(down("p"))],
            time_to_repairs=Exponential(1.0),
        )
    )
    model.add_spare_unit(SpareManagementUnit("smu", "p", ["s1", "s2"]))
    model.add_repair_unit(RepairUnit("rep", ["p", "s1", "s2", "w"], RepairStrategy.FCFS))
    model.set_system_down((down("p") & down("s1") & down("s2")) | down("w"))
    return model


def test_neighbour_structure_variants_through_one_memo():
    models = with_no_repair(
        [neighbour_variant(p, s) for p, s in itertools.product((1, 2), (1, 2))]
    )
    assert_memo_matches_fresh(models + models[::-1])
