"""State names: pinned bytes, and one name per state however it is read.

The pipeline carries names as lazy provenance (:mod:`repro.names`): a
product keeps the operand-state pairs, a selection (reachability, vanishing
chains, quotients, CTMC extraction, lumping) keeps the indices it picked.
The strings are built only when someone asks.  These tests pin the strings
the pipeline has always produced, check that a single-state lookup
(``state_name``) agrees with the materialised list (``state_names``), and
check that an evaluation builds no name at all.
"""

import dataclasses
import hashlib

import pytest

from repro.arcade.semantics import translate_model
from repro.casestudies.dds import (
    DDSParameters,
    build_dds_evaluator,
    build_dds_model,
    dds_composition_order,
)
from repro.composer import QuotientCache, compose_model
from repro.ioimc import IOIMC, IOIMCBuilder, Signature, compose, hide
from repro.lumping import minimize_branching
from repro.names import ListNames, ProductNames, SelectedNames

#: SHA-256 of ``"\n".join(ctmc.state_names)`` for the final chains of the
#: paper models (strong and branching reduction agree on the DDS chain).
DDS_NAMES_SHA256 = "2b8a755fbbce53b3a95f4249f2b7993c515156712919d3c53a885aefdd7b572d"
RCS_PUMP_NAMES_SHA256 = "fb19ac64e11e6072cd5df89b57edf564c69ed6b6016a01a845a416b0cd5a225a"


def names_digest(chain) -> str:
    return hashlib.sha256("\n".join(chain.state_names).encode()).hexdigest()


def assert_lookups_agree(model) -> None:
    names = model.state_names
    assert len(names) == model.num_states
    assert [model.state_name(state) for state in range(model.num_states)] == names


def one_cluster_dds():
    parameters = DDSParameters(num_clusters=1)
    translated = translate_model(build_dds_model(parameters))
    return translated, dds_composition_order(translated, parameters)


@pytest.mark.slow
class TestPinnedNames:
    def test_dds_strong(self, dds_full_evaluator):
        assert names_digest(dds_full_evaluator.ctmc) == DDS_NAMES_SHA256

    def test_dds_branching(self, dds_branching_evaluator):
        assert names_digest(dds_branching_evaluator.ctmc) == DDS_NAMES_SHA256

    def test_rcs_pump_chain(self, rcs_modular_evaluator):
        pumps = rcs_modular_evaluator.evaluators["pumps"]
        assert names_digest(pumps.ctmc) == RCS_PUMP_NAMES_SHA256


class TestLookupsAgree:
    def test_composed_one_cluster_dds(self):
        translated, order = one_cluster_dds()
        system = compose_model(translated, order=order)
        assert_lookups_agree(system.ioimc)
        assert_lookups_agree(system.ctmc)

    def test_branching_quotient(self):
        translated, _ = one_cluster_dds()
        blocks = translated.blocks
        product = compose(blocks["d_1"], blocks["d_2"])
        for name in ("d_3", "cluster_rep_1"):
            product = compose(product, blocks[name])
        hidden = hide(product, sorted(product.signature.outputs)[:2])
        quotient = minimize_branching(hidden).quotient
        assert quotient.num_states < hidden.num_states
        assert_lookups_agree(hidden)
        assert_lookups_agree(quotient)
        system = compose_model(translated, reduction="branching")
        assert_lookups_agree(system.ioimc)
        assert_lookups_agree(system.ctmc)

    def test_quotient_class_without_members_reads_its_index(self):
        builder = IOIMCBuilder("gaps", Signature.create())
        builder.state("a", initial=True)
        builder.state("b")
        builder.state("c")
        builder.markovian("a", 1.0, "c")
        builder.markovian("b", 1.0, "a")
        builder.markovian("c", 1.0, "a")
        quotient = builder.build().relabel_states([0, 0, 3], 4)
        assert quotient.state_names == ["a", "s1", "s2", "c"]
        assert_lookups_agree(quotient)
        reachable = quotient.restrict_to_reachable()
        assert reachable.state_names == ["a", "c"]
        assert_lookups_agree(reachable)

    def test_step_regathered_on_a_cache_shared_by_two_rate_points(self):
        translated, order = one_cluster_dds()
        cache = QuotientCache()
        compose_model(translated, order=order, cache=cache)
        scaled = dataclasses.replace(
            translated,
            blocks={
                name: IOIMC(
                    block.name,
                    block.signature,
                    block.num_states,
                    block.initial,
                    block.interactive,
                    [
                        [(2.0 * rate, target) for rate, target in row]
                        for row in block.markovian
                    ],
                    block.labels,
                    block.state_names,
                )
                for name, block in translated.blocks.items()
            },
        )
        warm = compose_model(scaled, order=order, cache=cache)
        assert cache.skeleton_stores > 0
        cold = compose_model(scaled, order=order, cache="on")
        assert warm.ioimc.state_names == cold.ioimc.state_names
        assert warm.ctmc.state_names == cold.ctmc.state_names
        assert_lookups_agree(warm.ioimc)
        assert_lookups_agree(warm.ctmc)


@pytest.mark.parametrize("num_clusters", [1, 2])
def test_cache_hits_name_states_after_their_own_operands(num_clusters):
    """A hit names its states after the replica it serves, not the one it
    stored: cache on and off give the same names (``[dc_4.m1 ph0]``, never
    the stored ``[dc_2.m1 ph0]``)."""
    parameters = DDSParameters(num_clusters=num_clusters)
    translated = translate_model(build_dds_model(parameters))
    order = dds_composition_order(translated, parameters)
    on = compose_model(translated, order=order, cache="on")
    off = compose_model(translated, order=order, cache="off")
    assert on.statistics.cache_hits > 0
    assert on.ioimc.state_names == off.ioimc.state_names
    assert on.ctmc.state_names == off.ctmc.state_names


def test_availability_builds_no_state_name(monkeypatch):
    evaluator = build_dds_evaluator(DDSParameters(num_clusters=1), cache="on")

    def refuse(*args):
        raise AssertionError("a state name was built")

    with monkeypatch.context() as patched:
        for source in (ListNames, ProductNames, SelectedNames):
            patched.setattr(source, "name", refuse)
            patched.setattr(source, "names_at", refuse)
        availability = evaluator.availability()
    assert 0.0 < availability < 1.0
    for model in (evaluator.composed.ioimc, evaluator.ctmc):
        assert isinstance(model.name_source, (ProductNames, SelectedNames))
        assert_lookups_agree(model)
