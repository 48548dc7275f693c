"""Regression pins for the composition-order helpers.

The gate-scheduling logic (``leaves_of`` / earliest-hiding placement) was
factored out of ``hierarchical_order`` into the reusable
:class:`repro.composer.GateScheduler` so the planner could share it; these
tests pin that ``hierarchical_order``'s output is *unchanged* on both case
studies (captured before the refactor), and cover the scheduler's own
contract.
"""

import pytest

from differential.generators import random_erlang_model
from repro.arcade.semantics import translate_model
from repro.casestudies.dds import build_dds_model, dds_composition_order
from repro.casestudies.rcs import (
    build_heat_exchange_subsystem,
    build_pump_subsystem,
    heat_exchange_subsystem_groups,
    pump_subsystem_groups,
    subsystem_order,
)
from repro.composer import GateScheduler, flatten_order
from repro.errors import CompositionError

# Captured from the pre-refactor implementation (commit eeea0e7); the
# GateScheduler factoring must reproduce these exactly.
DDS_HIERARCHICAL_ORDER = [[[[[[[[['pp', 'ps', 'p_smu', 'p_rep', '_sys.1'], ['dc_1', 'dc_2', 'cs_rep_1', '_sys.2'], '_sys.n0.0'], ['dc_3', 'dc_4', 'cs_rep_2', '_sys.3']], ['d_1', 'd_2', 'd_3', 'd_4', 'cluster_rep_1', '_sys.4'], '_sys.n0.1', '_sys.n1.0'], ['d_5', 'd_6', 'd_7', 'd_8', 'cluster_rep_2', '_sys.5']], ['d_9', 'd_10', 'd_11', 'd_12', 'cluster_rep_3', '_sys.6'], '_sys.n0.2'], ['d_13', 'd_14', 'd_15', 'd_16', 'cluster_rep_4', '_sys.7']], ['d_17', 'd_18', 'd_19', 'd_20', 'cluster_rep_5', '_sys.8'], '_sys.n0.3', '_sys.n1.1', '_sys.n2.0'], ['d_21', 'd_22', 'd_23', 'd_24', 'cluster_rep_6', '_sys.9'], '_sys']

RCS_PUMP_ORDER = [[['P1', 'P2', 'P_rep'], ['FP1', 'FP1_rep', 'VIP1', 'VIP1_rep', 'VOP1', 'VOP1_rep', '_sys.1.n0.1'], '_sys.1.n0.0', '_sys.1'], ['FP2', 'FP2_rep', 'VIP2', 'VIP2_rep', 'VOP2', 'VOP2_rep', '_sys.2.n0.1'], '_sys.2.n0.0', '_sys.2', '_sys']

RCS_HEAT_ORDER = [['HX', 'HX_rep', 'FHX', 'FHX_rep', 'VHX1', 'VHX1_rep', 'VHX2', 'VHX2_rep', '_sys.1.n0.0', '_sys.1.n0.1', '_sys.1'], ['MV1', 'MV1_rep', 'MV2', 'MV2_rep', '_sys.2'], '_sys']


class TestHierarchicalOrderUnchanged:
    def test_dds_order_pinned(self):
        translated = translate_model(build_dds_model())
        assert dds_composition_order(translated) == DDS_HIERARCHICAL_ORDER

    def test_rcs_pump_order_pinned(self):
        translated = translate_model(build_pump_subsystem())
        assert (
            subsystem_order(translated, pump_subsystem_groups()) == RCS_PUMP_ORDER
        )

    def test_rcs_heat_order_pinned(self):
        translated = translate_model(build_heat_exchange_subsystem())
        assert (
            subsystem_order(translated, heat_exchange_subsystem_groups())
            == RCS_HEAT_ORDER
        )


class TestGateScheduler:
    @pytest.fixture(scope="class")
    def dds(self):
        translated = translate_model(build_dds_model())
        return translated, GateScheduler(translated)

    def test_leaves_of_cluster_gate(self, dds):
        _, scheduler = dds
        assert scheduler.leaves_of("_sys.4") == frozenset(
            {"d_1", "d_2", "d_3", "d_4"}
        )

    def test_leaves_of_transitive_chain_gate(self, dds):
        _, scheduler = dds
        # _sys observes every component (through the whole gate tree) but no
        # repair/spare management unit.
        leaves = scheduler.leaves_of("_sys")
        assert "pp" in leaves and "d_24" in leaves
        assert not any(name.endswith("_rep") for name in leaves)
        assert "p_smu" not in leaves

    def test_ready_gates_sorted_smallest_first(self, dds):
        _, scheduler = dds
        covered = {"pp", "ps", "dc_1", "dc_2"}
        ready = scheduler.ready_gates(scheduler.gate_names, covered)
        assert ready == ["_sys.1", "_sys.2", "_sys.n0.0"]

    def test_ready_gates_put_observed_gates_first_on_equal_leaves(self):
        # _sys, _sys.1 and _sys.2 all observe {c0, c1}; _sys observes the
        # other two, so it comes last although it sorts first by name.
        translated = translate_model(random_erlang_model(6))
        scheduler = GateScheduler(translated)
        ready = scheduler.ready_gates(scheduler.gate_names, {"c0", "c1"})
        assert ready == ["_sys.1", "_sys.2", "_sys"]

    def test_ordered_dependencies_preserve_input_order(self, dds):
        translated, scheduler = dds
        for gate in scheduler.gate_names:
            ordered = scheduler.ordered_dependencies(gate)
            assert set(ordered) == scheduler.direct_dependencies(gate)

    def test_flatten_order_round_trip(self, dds):
        translated, _ = dds
        flat = flatten_order(DDS_HIERARCHICAL_ORDER)
        assert sorted(flat) == sorted(translated.blocks)

    def test_cyclic_gate_dependency_raises(self):
        translated = translate_model(build_pump_subsystem())
        scheduler = GateScheduler(translated)
        scheduler._leaves.clear()
        # Force a cycle through the internal trail guard.
        with pytest.raises(CompositionError):
            scheduler.leaves_of("_sys", _trail=("_sys",))
