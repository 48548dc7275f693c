"""Tests for the I/O-IMC semantics of the Arcade building blocks (Figs. 2-9)."""


import pytest

from repro.analysis import ArcadeEvaluator
from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    down,
    spare_group,
)
from repro.arcade.operational_modes import degradation_group, on_off_group
from repro.arcade.semantics import (
    SYSTEM_GATE_NAME,
    ComponentTranslator,
    RepairUnitTranslator,
    SpareUnitTranslator,
    build_component_ioimc,
    build_gate_ioimc,
    build_repair_unit_ioimc,
    build_spare_unit_ioimc,
    translate_model,
)
from repro.arcade.semantics.gate_semantics import GateInput, VotingGate
from repro.arcade.semantics import signals
from repro.distributions import Erlang, Exponential

from differential.test_rate_reuse import ioimc_bytes


def single_component_model(**kwargs) -> tuple[ArcadeModel, BasicComponent]:
    model = ArcadeModel(name="m")
    component = BasicComponent(
        "c", kwargs.pop("ttf", Exponential(0.01)), time_to_repairs=Exponential(1.0), **kwargs
    )
    model.add_component(component)
    model.add_repair_unit(RepairUnit("c_rep", ["c"], RepairStrategy.DEDICATED))
    model.set_system_down(down("c"))
    return model, component


class TestBasicComponentSemantics:
    def test_simple_repairable_component(self):
        """Fig. 3 without DF: UP -> pending failed -> DOWN -> pending up -> UP."""
        model, component = single_component_model()
        automaton = build_component_ioimc(component, model)
        assert automaton.num_states == 4
        assert automaton.signature.outputs == {
            signals.failed_signal("c", "m1"),
            signals.up_signal("c"),
        }
        assert signals.repaired_signal("c") in automaton.signature.inputs
        assert automaton.num_markovian_transitions() == 1

    def test_two_failure_modes_split_rate(self):
        """Fig. 4: the failure rate is split p / (1-p) over the two modes."""
        model = ArcadeModel(name="m")
        component = BasicComponent(
            "valve",
            Exponential(1.0),
            failure_mode_probabilities=[0.25, 0.75],
            time_to_repairs=[Exponential(1.0), Exponential(1.0)],
        )
        model.add_component(component)
        model.add_repair_unit(RepairUnit("v_rep", ["valve"], RepairStrategy.DEDICATED))
        model.set_system_down(down("valve"))
        automaton = build_component_ioimc(component, model)
        rates = sorted(rate for rate, _ in automaton.markovian[automaton.initial])
        assert rates == pytest.approx([0.25, 0.75])
        # The split race is the block's only Markovian behaviour: repair
        # delays live in the repair unit.
        all_rates = sorted(rate for row in automaton.markovian for rate, _ in row)
        assert all_rates == pytest.approx([0.25, 0.75])
        assert signals.failed_signal("valve", "m2") in automaton.signature.outputs

    def test_erlang_failure_adds_phases(self):
        model, component = single_component_model(ttf=Erlang(3, 0.1))
        automaton = build_component_ioimc(component, model)
        # Three up-phases plus pending-fail, down and pending-up states.
        assert automaton.num_states == 6

    def test_unrepairable_component_has_no_repaired_input(self):
        model = ArcadeModel(name="m")
        component = BasicComponent("c", Exponential(0.01))
        model.add_component(component)
        model.set_system_down(down("c"))
        automaton = build_component_ioimc(component, model)
        assert signals.repaired_signal("c") not in automaton.signature.inputs
        assert automaton.num_states == 3  # up, pending failed, down (absorbing)

    def test_spare_listens_to_activation_signals(self):
        """Fig. 2/5: the active/inactive group is driven by the SMU."""
        model = ArcadeModel(name="m")
        primary = BasicComponent("p", Exponential(0.01), time_to_repairs=Exponential(1.0))
        spare = BasicComponent(
            "s",
            [Exponential(0.001), Exponential(0.01)],
            operational_modes=[spare_group()],
            time_to_repairs=Exponential(1.0),
        )
        model.add_components([primary, spare])
        model.add_spare_unit(SpareManagementUnit("smu", "p", ["s"]))
        model.add_repair_unit(RepairUnit("rep", ["p", "s"], RepairStrategy.FCFS))
        model.set_system_down(down("p") & down("s"))
        automaton = build_component_ioimc(spare, model)
        assert signals.activate_signal("s") in automaton.signature.inputs
        assert signals.deactivate_signal("s") in automaton.signature.inputs
        # The dormant and active failure rates differ between states.
        rates = {rate for row in automaton.markovian for rate, _ in row}
        assert rates == {0.001, 0.01}

    def test_spare_and_on_off_groups_combine(self):
        """Figs. 2 and 5: a spare whose power supply can switch it off.

        The two mode groups multiply: 2 (active/inactive) x 2 (on/off)
        operational states per failure-model state.  Only the two "on"
        modes fail, each at its own rate.
        """
        model = ArcadeModel(name="m")
        power = BasicComponent("power", Exponential(0.01), time_to_repairs=Exponential(1.0))
        spare = BasicComponent(
            "bc",
            [Exponential(0.001), Exponential(0.002), None, None],
            operational_modes=[spare_group(), on_off_group(down("power"))],
            time_to_repairs=Exponential(1.0),
        )
        model.add_components([power, spare])
        model.add_spare_unit(SpareManagementUnit("smu", "power", ["bc"]))
        model.add_repair_unit(RepairUnit("rp", ["power"], RepairStrategy.DEDICATED))
        model.add_repair_unit(RepairUnit("rb", ["bc"], RepairStrategy.DEDICATED))
        model.set_system_down(down("bc"))
        automaton = build_component_ioimc(spare, model)
        # 4 operational states x (up, pending fail, down, pending up).
        assert automaton.num_states == 4 * 4
        assert automaton.signature.inputs == {
            signals.activate_signal("bc"),
            signals.deactivate_signal("bc"),
            signals.repaired_signal("bc"),
            signals.failed_signal("power", "m1"),
            signals.up_signal("power"),
        }
        rates = sorted(rate for row in automaton.markovian for rate, _ in row)
        assert rates == [0.001, 0.002]

    def test_on_off_group_stops_failures(self):
        model = ArcadeModel(name="m")
        power = BasicComponent("power", Exponential(0.1), time_to_repairs=Exponential(1.0))
        consumer = BasicComponent(
            "consumer",
            [Exponential(0.05), None],
            operational_modes=[on_off_group(down("power"))],
            time_to_repairs=Exponential(1.0),
        )
        model.add_components([power, consumer])
        model.add_repair_unit(RepairUnit("rp", ["power"], RepairStrategy.DEDICATED))
        model.add_repair_unit(RepairUnit("rc", ["consumer"], RepairStrategy.DEDICATED))
        model.set_system_down(down("consumer"))
        automaton = build_component_ioimc(consumer, model)
        # The consumer listens to the power supply's failure and restoration.
        assert signals.failed_signal("power", "m1") in automaton.signature.inputs
        assert signals.up_signal("power") in automaton.signature.inputs
        # In the "off" state there is no Markovian failure transition: find the
        # state reached by the power-failed input from the initial state.
        target = automaton.interactive_successors(
            automaton.initial, signals.failed_signal("power", "m1")
        )[0]
        assert automaton.markovian[target] == []

    def test_destructive_fdep_failure(self):
        """Fig. 3 lower part: the DF input leads to the failed.df announcement."""
        model = ArcadeModel(name="m")
        fan = BasicComponent("fan", Exponential(0.1), time_to_repairs=Exponential(1.0))
        cpu = BasicComponent(
            "cpu",
            Exponential(0.01),
            time_to_repairs=Exponential(1.0),
            time_to_repair_df=Exponential(2.0),
            destructive_fdep=down("fan"),
        )
        model.add_components([fan, cpu])
        model.add_repair_unit(RepairUnit("rf", ["fan"], RepairStrategy.DEDICATED))
        model.add_repair_unit(RepairUnit("rc", ["cpu"], RepairStrategy.DEDICATED))
        model.set_system_down(down("cpu"))
        automaton = build_component_ioimc(cpu, model)
        # Up/down in the own failure mode and in the DF mode, the pending
        # announcements, and the fan-down bookkeeping.
        assert automaton.num_states == 11
        assert automaton.num_markovian_transitions() == 1
        assert signals.failed_signal("cpu", "df") in automaton.signature.outputs
        # Receiving the fan failure puts the cpu into a pending failed.df state.
        target = automaton.interactive_successors(
            automaton.initial, signals.failed_signal("fan", "m1")
        )[0]
        enabled = automaton.enabled_actions(target)
        assert signals.failed_signal("cpu", "df") in enabled

    def test_degraded_mode_changes_rate(self):
        model = ArcadeModel(name="m")
        p2 = BasicComponent("P2", Erlang(2, 1e-6), time_to_repairs=Erlang(2, 0.1))
        p1 = BasicComponent(
            "P1",
            [Erlang(2, 1e-6), Erlang(2, 2e-6)],
            operational_modes=[degradation_group(down("P2"))],
            time_to_repairs=Erlang(2, 0.1),
        )
        model.add_components([p1, p2])
        model.add_repair_unit(RepairUnit("rep", ["P1", "P2"], RepairStrategy.FCFS))
        model.set_system_down(down("P1") & down("P2"))
        automaton = build_component_ioimc(p1, model)
        rates = {rate for row in automaton.markovian for rate, _ in row}
        assert rates == {1e-6, 2e-6}


class TestRepairUnitSemantics:
    def test_dedicated_unit_matches_fig6a(self):
        model, component = single_component_model()
        automaton = build_repair_unit_ioimc(model.repair_units["c_rep"], model)
        # idle, repairing, done -> 3 states; one Markovian repair transition.
        assert automaton.num_states == 3
        assert automaton.num_markovian_transitions() == 1
        assert signals.repaired_signal("c") in automaton.signature.outputs

    def test_dedicated_unit_two_modes_matches_fig6b(self):
        model = ArcadeModel(name="m")
        component = BasicComponent(
            "v",
            Exponential(1.0),
            failure_mode_probabilities=[0.5, 0.5],
            time_to_repairs=[Exponential(2.0), Exponential(3.0)],
        )
        model.add_component(component)
        unit = RepairUnit("v_rep", ["v"], RepairStrategy.DEDICATED)
        model.add_repair_unit(unit)
        model.set_system_down(down("v"))
        automaton = build_repair_unit_ioimc(unit, model)
        assert automaton.num_states == 5  # idle, repairing x2, done x... (merged done)
        rates = sorted(rate for row in automaton.markovian for rate, _ in row)
        assert rates == pytest.approx([2.0, 3.0])

    def test_fcfs_unit_tracks_arrival_order(self):
        """Fig. 7: with two components the FCFS unit distinguishes AB from BA."""
        model = ArcadeModel(name="m")
        for name in ("A", "B"):
            model.add_component(
                BasicComponent(name, Exponential(0.1), time_to_repairs=Exponential(1.0))
            )
        unit = RepairUnit("rep", ["A", "B"], RepairStrategy.FCFS)
        model.add_repair_unit(unit)
        model.set_system_down(down("A") & down("B"))
        automaton = build_repair_unit_ioimc(unit, model)
        # States: idle, rep A, rep B, rep A then B queued, rep B then A queued,
        # plus the "done" announcement states.
        assert automaton.num_states >= 7
        names = [automaton.state_name(state) for state in automaton.states()]
        assert any("A.m1,B.m1" in name for name in names)
        assert any("B.m1,A.m1" in name for name in names)

    def test_preemptive_priority_switches_to_urgent_job(self):
        model = ArcadeModel(name="m")
        for name in ("low", "high"):
            model.add_component(
                BasicComponent(name, Exponential(0.1), time_to_repairs=Exponential(1.0))
            )
        unit = RepairUnit(
            "rep", ["low", "high"], RepairStrategy.PRIORITY_PREEMPTIVE, priorities=[1, 2]
        )
        model.add_repair_unit(unit)
        model.set_system_down(down("low") & down("high"))
        automaton = build_repair_unit_ioimc(unit, model)
        # From the state where only "low" is under repair, the arrival of
        # "high" leads to a state whose next completion repairs "high" first.
        start = automaton.initial
        low_failed = automaton.interactive_successors(
            start, signals.failed_signal("low", "m1")
        )[0]
        both_failed = automaton.interactive_successors(
            low_failed, signals.failed_signal("high", "m1")
        )[0]
        # Completion from that state must announce high's repair first.
        markovian_target = automaton.markovian[both_failed][0][1]
        assert signals.repaired_signal("high") in automaton.enabled_actions(markovian_target)

    def test_non_preemptive_priority_finishes_current_job(self):
        model = ArcadeModel(name="m")
        for name in ("low", "high"):
            model.add_component(
                BasicComponent(name, Exponential(0.1), time_to_repairs=Exponential(1.0))
            )
        unit = RepairUnit(
            "rep", ["low", "high"], RepairStrategy.PRIORITY_NON_PREEMPTIVE, priorities=[1, 2]
        )
        model.add_repair_unit(unit)
        model.set_system_down(down("low") & down("high"))
        automaton = build_repair_unit_ioimc(unit, model)
        start = automaton.initial
        low_failed = automaton.interactive_successors(
            start, signals.failed_signal("low", "m1")
        )[0]
        both_failed = automaton.interactive_successors(
            low_failed, signals.failed_signal("high", "m1")
        )[0]
        markovian_target = automaton.markovian[both_failed][0][1]
        assert signals.repaired_signal("low") in automaton.enabled_actions(markovian_target)


class TestSpareUnitSemantics:
    def build_model(self, failover=None):
        model = ArcadeModel(name="m")
        model.add_component(
            BasicComponent("p", Exponential(0.01), time_to_repairs=Exponential(1.0))
        )
        model.add_component(
            BasicComponent(
                "s",
                [Exponential(0.01), Exponential(0.01)],
                operational_modes=[spare_group()],
                time_to_repairs=Exponential(1.0),
            )
        )
        unit = SpareManagementUnit("smu", "p", ["s"], failover=failover)
        model.add_spare_unit(unit)
        model.add_repair_unit(RepairUnit("rep", ["p", "s"], RepairStrategy.FCFS))
        model.set_system_down(down("p") & down("s"))
        return model, unit

    def test_fig8_structure(self):
        model, unit = self.build_model()
        automaton = build_spare_unit_ioimc(unit, model)
        # Fig. 8: primary-up, activate pending, spare-active, deactivate pending.
        assert automaton.num_states == 4
        assert automaton.num_markovian_transitions() == 0
        assert signals.activate_signal("s") in automaton.signature.outputs

    def test_fig9_failover_adds_markovian_delay(self):
        model, unit = self.build_model(failover=Exponential(100.0))
        automaton = build_spare_unit_ioimc(unit, model)
        assert automaton.num_markovian_transitions() >= 1
        assert automaton.num_states == 5

    def test_multiple_spares_activate_in_order(self):
        model = ArcadeModel(name="m")
        model.add_component(
            BasicComponent("p", Exponential(0.01), time_to_repairs=Exponential(1.0))
        )
        for name in ("s1", "s2"):
            model.add_component(
                BasicComponent(
                    name,
                    [Exponential(0.01), Exponential(0.01)],
                    operational_modes=[spare_group()],
                    time_to_repairs=Exponential(1.0),
                )
            )
        unit = SpareManagementUnit("smu", "p", ["s1", "s2"])
        model.add_spare_unit(unit)
        model.add_repair_unit(RepairUnit("rep", ["p", "s1", "s2"], RepairStrategy.FCFS))
        model.set_system_down(down("p") & down("s1") & down("s2"))
        automaton = build_spare_unit_ioimc(unit, model)
        assert signals.activate_signal("s1") in automaton.signature.outputs
        assert signals.activate_signal("s2") in automaton.signature.outputs
        # The unit observes the spares' health in the multi-spare configuration.
        assert signals.failed_signal("s1", "m1") in automaton.signature.inputs


class TestGateSemantics:
    def test_and_gate(self):
        model, component = single_component_model()
        gate = VotingGate(
            "g",
            2,
            (
                GateInput.from_literal(down("c"), model),
                GateInput.from_gate("other"),
            ),
        )
        automaton = build_gate_ioimc(gate)
        assert automaton.num_states == 8
        assert signals.gate_failed_signal("g") in automaton.signature.outputs

    def test_gate_labels_on_failed_condition(self):
        model, component = single_component_model()
        gate = VotingGate(
            "g",
            1,
            (GateInput.from_literal(down("c"), model),),
            labels_when_failed=frozenset({"down"}),
        )
        automaton = build_gate_ioimc(gate)
        labelled = [state for state in automaton.states() if automaton.label_of(state)]
        assert len(labelled) == 2  # condition true, announced or not


class TestTranslator:
    def test_translates_all_blocks(self):
        model, _ = single_component_model()
        translated = translate_model(model)
        assert set(translated.blocks) == {"c", "c_rep", SYSTEM_GATE_NAME}
        assert translated.top_gate == SYSTEM_GATE_NAME

    def test_wide_or_is_narrowed(self):
        model = ArcadeModel(name="wide")
        literals = []
        for index in range(5):
            name = f"c{index}"
            model.add_component(
                BasicComponent(name, Exponential(0.1), time_to_repairs=Exponential(1.0))
            )
            model.add_repair_unit(RepairUnit(f"{name}_rep", [name], RepairStrategy.DEDICATED))
            literals.append(down(name))
        from repro.arcade.expressions import Or

        model.set_system_down(Or(literals))
        translated = translate_model(model)
        # 5 literals with width 2 need intermediate narrowing gates.
        assert len(translated.gates) > 1
        for gate in translated.gates.values():
            assert len(gate.inputs) <= 2

    def test_listener_map(self):
        model, _ = single_component_model()
        translated = translate_model(model)
        listeners = translated.listeners_of(signals.failed_signal("c", "m1"))
        assert listeners == {"c_rep", SYSTEM_GATE_NAME}


def memo_model(
    *, primary=0.01, spare=0.02, watcher=0.03, repair=1.0
) -> ArcadeModel:
    """Primary ``p`` with spares ``s1``/``s2``, and ``w``, which is off while
    ``p`` is down; one FCFS unit repairs all four."""
    model = ArcadeModel(name="memo")
    model.add_component(
        BasicComponent("p", Exponential(primary), time_to_repairs=Exponential(repair))
    )
    for name in ("s1", "s2"):
        model.add_component(
            BasicComponent(
                name,
                [Exponential(spare), Exponential(spare)],
                operational_modes=[spare_group()],
                time_to_repairs=Exponential(repair),
            )
        )
    model.add_component(
        BasicComponent(
            "w",
            Exponential(watcher),
            operational_modes=[on_off_group(down("p"))],
            time_to_repairs=Exponential(repair),
        )
    )
    model.add_spare_unit(SpareManagementUnit("smu", "p", ["s1", "s2"]))
    model.add_repair_unit(RepairUnit("rep", ["p", "s1", "s2", "w"], RepairStrategy.FCFS))
    model.set_system_down((down("p") & down("s1") & down("s2")) | down("w"))
    return model


class TestBlockMemo:
    """Translations sharing a ``blocks`` memo reuse every block whose
    translator key repeats, and only those."""

    @staticmethod
    def rebuilt(changed: ArcadeModel) -> set[str]:
        memo: dict = {}
        before = translate_model(memo_model(), blocks=memo).blocks
        after = translate_model(changed, blocks=memo).blocks
        assert set(after) == set(before)
        return {name for name in after if after[name] is not before[name]}

    def test_unchanged_model_reuses_every_block(self):
        assert self.rebuilt(memo_model()) == set()

    def test_repair_rate_change_rebuilds_only_the_repair_unit(self):
        assert self.rebuilt(memo_model(repair=2.0)) == {"rep"}

    def test_watched_failure_rate_change_keeps_the_watchers(self):
        # ``w`` and the SMU watch ``p``'s failure signals, not its rates.
        assert self.rebuilt(memo_model(primary=0.05)) == {"p"}
        assert self.rebuilt(memo_model(spare=0.05)) == {"s1", "s2"}

    def test_equal_rates_of_different_types_share_a_key(self):
        as_int, component = single_component_model(ttf=Exponential(2))
        as_float, _ = single_component_model(ttf=Exponential(2.0))
        assert ComponentTranslator(component, as_int).key() == ComponentTranslator(
            as_float.component("c"), as_float
        ).key()
        memo: dict = {}
        served = translate_model(as_int, blocks=memo).blocks["c"]
        assert translate_model(as_float, blocks=memo).blocks["c"] is served
        fresh = translate_model(as_float).blocks["c"]
        assert ioimc_bytes(served) == ioimc_bytes(fresh)

    def test_translators_build_without_the_model(self):
        model = memo_model()
        fresh = translate_model(model).blocks
        translators = {
            "w": ComponentTranslator(model.component("w"), model),
            "rep": RepairUnitTranslator(model.repair_units["rep"], model),
            "smu": SpareUnitTranslator(model.spare_units["smu"], model),
        }
        for name, translator in translators.items():
            translator.model = None
            assert ioimc_bytes(translator.build()) == ioimc_bytes(fresh[name])

    def test_cache_off_translates_new_objects_every_time(self):
        first = ArcadeEvaluator(memo_model(), cache="off").translated.blocks
        second = ArcadeEvaluator(memo_model(), cache="off").translated.blocks
        assert not {id(block) for block in first.values()} & {
            id(block) for block in second.values()
        }
