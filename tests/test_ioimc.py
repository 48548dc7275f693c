"""Tests for the I/O-IMC core: signatures, composition and hiding (Section 2)."""

import math

import pytest

from repro.errors import (
    CompositionError,
    InputEnablednessError,
    ModelError,
    SignatureError,
)
from repro.ioimc import (
    TAU,
    ActionKind,
    IOIMC,
    IOIMCBuilder,
    InteractiveCSR,
    MarkovianCSR,
    Signature,
    compose,
    compose_many,
    hide,
    to_dot,
    to_text,
)


def figure1_ioimc() -> IOIMC:
    """The example I/O-IMC of Fig. 1 (five states, race between a? and lambda)."""
    builder = IOIMCBuilder("fig1", Signature.create(inputs={"a"}, outputs={"b"}))
    builder.state("S1", initial=True)
    builder.markovian("S1", 2.0, "S2")
    builder.interactive("S1", "a", "S3")
    builder.interactive("S2", "a", "S3")
    builder.markovian("S3", 3.0, "S4")
    builder.interactive("S4", "b", "S5")
    return builder.build()


class TestSignature:
    def test_kind_lookup(self):
        signature = Signature.create(inputs={"a"}, outputs={"b"}, internals={"c"})
        assert signature.kind_of("a") is ActionKind.INPUT
        assert signature.kind_of("b") is ActionKind.OUTPUT
        assert signature.kind_of("c") is ActionKind.INTERNAL

    def test_overlapping_sets_rejected(self):
        with pytest.raises(SignatureError):
            Signature.create(inputs={"a"}, outputs={"a"})

    def test_compose_output_wins_over_input(self):
        left = Signature.create(inputs={"x"}, outputs={"y"})
        right = Signature.create(inputs={"y"}, outputs={"z"})
        combined = left.compose(right)
        assert "y" in combined.outputs
        assert "y" not in combined.inputs
        assert combined.inputs == frozenset({"x"})

    def test_shared_outputs_incompatible(self):
        left = Signature.create(outputs={"y"})
        right = Signature.create(outputs={"y"})
        assert not left.is_compatible(right)
        with pytest.raises(SignatureError):
            left.compose(right)

    def test_tau_is_exempt_from_freshness(self):
        left = Signature.create(outputs={"a"}, internals={TAU})
        right = Signature.create(inputs={"a"}, internals={TAU})
        assert left.is_compatible(right)

    def test_hide_moves_outputs_to_internal(self):
        signature = Signature.create(inputs={"a"}, outputs={"b", "c"})
        hidden = signature.hide({"b"})
        assert hidden.outputs == frozenset({"c"})
        assert "b" in hidden.internals

    def test_hide_rejects_inputs(self):
        signature = Signature.create(inputs={"a"}, outputs={"b"})
        with pytest.raises(SignatureError):
            signature.hide({"a"})

    def test_decorated_notation(self):
        assert ActionKind.INPUT.decorate("a") == "a?"
        assert ActionKind.OUTPUT.decorate("a") == "a!"
        assert ActionKind.INTERNAL.decorate("a") == "a;"


class TestIOIMCStructure:
    def test_figure1_counts(self):
        automaton = figure1_ioimc()
        assert automaton.num_states == 5
        assert automaton.num_markovian_transitions() == 2
        # Input-enabling adds explicit a?-self-loops in S3, S4, S5.
        assert automaton.num_interactive_transitions() == 2 + 3 + 1

    def test_input_enabledness_materialised(self):
        automaton = figure1_ioimc()
        automaton.check_input_enabled()  # must not raise

    def test_missing_input_detected(self):
        signature = Signature.create(inputs={"a"})
        automaton = IOIMC("m", signature, 1, 0, [[]], [[]])
        with pytest.raises(InputEnablednessError):
            automaton.check_input_enabled()
        fixed = automaton.ensure_input_enabled()
        fixed.check_input_enabled()

    def test_stability(self):
        automaton = figure1_ioimc()
        s4 = next(s for s in automaton.states() if automaton.state_name(s) == "S4")
        s1 = next(s for s in automaton.states() if automaton.state_name(s) == "S1")
        assert not automaton.is_stable(s4)  # output b! enabled
        assert automaton.is_stable(s1)  # only an input and a Markovian transition

    def test_reachability_restriction(self):
        builder = IOIMCBuilder("r", Signature.create(outputs={"x"}))
        builder.state("a", initial=True)
        builder.state("unreachable")
        builder.interactive("unreachable", "x", "a")
        automaton = builder.build()
        restricted = automaton.restrict_to_reachable()
        assert restricted.num_states == 1

    def test_rejects_bad_rate(self):
        with pytest.raises(ModelError):
            IOIMC("bad", Signature.create(), 1, 0, [[]], [[(-1.0, 0)]])

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_constructor_rejects_non_finite_or_non_positive_rates(self, rate):
        message = f"rate of state 0 must be finite and positive, got {rate}$"
        with pytest.raises(ModelError, match=message):
            IOIMC(
                "x", Signature.create(), 2, 0, [[], []], [[(rate, 1)], [(1.0, 0)]]
            )

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_builder_rejects_non_finite_or_non_positive_rates(self, rate):
        builder = IOIMCBuilder("x", Signature.create())
        builder.state("A", initial=True)
        with pytest.raises(ModelError, match=f"finite and positive, got {rate}$"):
            builder.markovian("A", rate, "B")

    def test_constructor_names_undeclared_actions_and_bad_targets(self):
        signature = Signature.create(outputs={"x"})
        with pytest.raises(ModelError, match="state 1 uses action 'y'"):
            IOIMC("u", signature, 2, 0, [[("x", 1)], [("y", 0)]], [[], []])
        with pytest.raises(ModelError, match="state 0 has interactive target 2"):
            IOIMC("u", signature, 2, 0, [[("x", 2)], []], [[], []])
        with pytest.raises(ModelError, match="state 1 has Markovian target -1"):
            IOIMC("u", signature, 2, 0, [[], []], [[], [(1.0, -1)]])

    def test_validate_checks_the_columns(self):
        automaton = figure1_ioimc()
        automaton.validate()  # a valid automaton passes
        index = automaton.index()
        icsr, mcsr = index.interactive_csr, index.markovian_csr
        indptr, source, action, target = (
            icsr.indptr, icsr.source, icsr.action, icsr.target
        )
        m_indptr, m_source, rate, m_target = (
            mcsr.indptr, mcsr.source, mcsr.rate, mcsr.target
        )
        broken = [
            # Row offsets that do not end at the edge count.
            (InteractiveCSR(indptr + 1, source, action, target), mcsr),
            # A source column that is not the expansion of the offsets.
            (InteractiveCSR(indptr, source[::-1], action, target), mcsr),
            # An action id outside the signature.
            (InteractiveCSR(indptr, source, action + 9, target), mcsr),
            # A Markovian target out of range.
            (icsr, MarkovianCSR(m_indptr, m_source, rate, m_target + 9)),
            # A rate that is not finite.
            (icsr, MarkovianCSR(m_indptr, m_source, rate * math.inf, m_target)),
        ]
        for interactive, markovian in broken:
            candidate = IOIMC.from_tables(
                "b", automaton.signature, 0, interactive, markovian
            )
            with pytest.raises(ModelError):
                candidate.validate()
        misfits = ((5, None, None), (0, {5: frozenset("d")}, None), (0, None, ["one"]))
        for initial, labels, names in misfits:
            candidate = IOIMC.from_tables(
                "b", automaton.signature, initial, icsr, mcsr, labels, names
            )
            with pytest.raises(ModelError):
                candidate.validate()

    def test_labels_preserved(self):
        builder = IOIMCBuilder("l", Signature.create())
        builder.state("s", initial=True, labels={"down"})
        automaton = builder.build()
        assert automaton.label_of(0) == frozenset({"down"})

    def test_exit_rate(self):
        automaton = figure1_ioimc()
        s1 = next(s for s in automaton.states() if automaton.state_name(s) == "S1")
        assert automaton.exit_rate(s1) == pytest.approx(2.0)


class TestComposition:
    def build_sender(self) -> IOIMC:
        builder = IOIMCBuilder("sender", Signature.create(outputs={"msg"}))
        builder.state("wait", initial=True)
        builder.markovian("wait", 1.0, "ready")
        builder.interactive("ready", "msg", "done")
        return builder.build()

    def build_receiver(self) -> IOIMC:
        builder = IOIMCBuilder("receiver", Signature.create(inputs={"msg"}, outputs={"ack"}))
        builder.state("idle", initial=True)
        builder.interactive("idle", "msg", "got")
        builder.interactive("got", "ack", "idle")
        return builder.build()

    def test_synchronisation_on_output(self):
        composite = compose(self.build_sender(), self.build_receiver())
        # msg is an output of the composition (output + input synchronise to output).
        assert "msg" in composite.signature.outputs
        assert "msg" not in composite.signature.inputs
        # The receiver can only reach "got" together with the sender reaching "done".
        names = [composite.state_name(s) for s in composite.states()]
        assert not any("wait" in name and "got" in name for name in names)

    def test_markovian_interleaving(self):
        left = self.build_sender()
        right = self.build_sender().renamed("sender2")
        with pytest.raises(CompositionError):
            compose(left, right)  # both control msg!

    def test_compose_many(self):
        composite = compose_many([self.build_sender(), self.build_receiver()], name="sys")
        assert composite.name == "sys"
        assert composite.num_states >= 3

    def test_compose_empty_list_rejected(self):
        with pytest.raises(CompositionError):
            compose_many([])

    def test_independent_actions_interleave(self):
        a = IOIMCBuilder("a", Signature.create(outputs={"x"}))
        a.state("0", initial=True)
        a.interactive("0", "x", "1")
        b = IOIMCBuilder("b", Signature.create(outputs={"y"}))
        b.state("0", initial=True)
        b.interactive("0", "y", "1")
        composite = compose(a.build(), b.build())
        assert composite.num_states == 4

    def test_composite_labels_are_unions(self):
        a = IOIMCBuilder("a", Signature.create())
        a.state("0", initial=True, labels={"down"})
        b = IOIMCBuilder("b", Signature.create())
        b.state("0", initial=True, labels={"red"})
        composite = compose(a.build(), b.build())
        assert composite.label_of(composite.initial) == frozenset({"down", "red"})


class TestHiding:
    def test_hide_renames_to_tau(self):
        builder = IOIMCBuilder("h", Signature.create(outputs={"x"}))
        builder.state("0", initial=True)
        builder.interactive("0", "x", "1")
        hidden = hide(builder.build(), {"x"})
        assert hidden.signature.outputs == frozenset()
        assert TAU in hidden.signature.internals
        actions = {action for row in hidden.interactive for action, _ in row}
        assert actions == {TAU}

    def test_hide_unknown_action_is_ignored(self):
        builder = IOIMCBuilder("h", Signature.create(outputs={"x"}))
        builder.state("0", initial=True)
        automaton = builder.build()
        assert hide(automaton, {"not_there"}) is automaton


class TestVisualization:
    def test_dot_output_contains_transitions(self):
        dot = to_dot(figure1_ioimc())
        assert "digraph" in dot
        assert "style=dashed" in dot  # Markovian transitions drawn dashed
        assert '"a?"' in dot

    def test_text_output(self):
        text = to_text(figure1_ioimc())
        assert "I/O-IMC fig1" in text
        assert "rate 2" in text
