"""Translation of a complete Arcade model into a set of I/O-IMCs.

This is the first step of the evaluation approach of Section 4 of the paper
("we translate all basic components, spare management units, repair units,
and system failure evaluation models into their underlying I/O-IMCs") — the
step that was not yet automated in the original tool chain and is fully
automated here.

The ``SYSTEM DOWN`` expression is compiled into a tree of voting gates; wide
conjunctions/disjunctions are split into balanced trees of binary gates
(``GATE_WIDTH``), which keeps the intermediate models of the compositional
aggregation small (an n-input gate has 2^n states, and its inputs stay
unconstrained until the corresponding subsystems have been composed in).
The top gate carries the ``down`` label on every state in which its
condition holds; this label survives composition, minimisation and CTMC
extraction and identifies the system-failure states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import ModelError
from ...ioimc import IOIMC
from ...telemetry.trace import span as telemetry_span
from ..expressions import And, Expression, KOutOfN, Literal, Or
from ..model import ArcadeModel
from .bc_semantics import ComponentTranslator
from .gate_semantics import GateInput, GateTranslator, VotingGate
from .ru_semantics import RepairUnitTranslator
from .smu_semantics import SpareUnitTranslator

#: Name of the top-level system gate created by the translator.
SYSTEM_GATE_NAME = "_sys"

#: Shared empty result of :meth:`TranslatedModel.listeners_of`.
_NO_LISTENERS: frozenset[str] = frozenset()

#: Atomic proposition carried by the system gate while its condition holds.
DOWN_LABEL = "down"
#: Widest gate the translator builds: a wider AND/OR becomes a balanced
#: tree of binary gates, so every gate's state space stays small.
GATE_WIDTH = 2


@dataclass
class TranslatedModel:
    """The I/O-IMCs of all building blocks of one Arcade model."""

    model: ArcadeModel
    blocks: dict[str, IOIMC]
    top_gate: str
    gates: dict[str, VotingGate] = field(default_factory=dict)
    #: Lazily built ``action -> listening blocks`` table (the blocks are
    #: immutable after translation, and may be shared with other
    #: translations through a block memo, so the table can never go stale).
    _listener_table: dict[str, frozenset[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def listeners_of(self, action: str) -> frozenset[str]:
        """Blocks that have ``action`` in their input signature.

        Answered from a memoised inverse table: the composer's hiding
        schedule and its greedy default order ask this per action per
        step, which made the naive per-query sweep over every block the
        single hottest path of order choice on large models.
        """
        table = self._listener_table
        if table is None:
            listeners: dict[str, set[str]] = {}
            for name, block in self.blocks.items():
                for action_name in block.signature.inputs:
                    listeners.setdefault(action_name, set()).add(name)
            table = {
                action_name: frozenset(names)
                for action_name, names in listeners.items()
            }
            self._listener_table = table
        return table.get(action, _NO_LISTENERS)


#: Any block translator: each resolves its model context in ``__init__``
#: and offers ``key()`` (the fields ``build()`` reads) and ``build()``.
BlockTranslator = (
    ComponentTranslator | RepairUnitTranslator | SpareUnitTranslator | GateTranslator
)


class ModelTranslator:
    """Translates an :class:`ArcadeModel` into its building-block I/O-IMCs.

    ``blocks`` is an optional memo of built blocks keyed by their
    translator's ``key()``.  Translations that share it (the points of a
    sweep, the repairable and no-repair models of one evaluation) get the
    very same block object back wherever a key repeats.  Memoised blocks
    are shared and must not be mutated.  Without a memo the translator
    keeps a private one; within one model every key is distinct (each
    names its block), so every block is then built afresh.
    """

    def __init__(
        self,
        model: ArcadeModel,
        *,
        blocks: dict[tuple | VotingGate, IOIMC] | None = None,
    ):
        self.model = model
        self.blocks = blocks if blocks is not None else {}
        self.gates: dict[str, VotingGate] = {}
        #: Blocks built and blocks served from the memo by the last translation.
        self.built = 0
        self.reused = 0

    # ------------------------------------------------------------------ #
    # gate-tree compilation
    # ------------------------------------------------------------------ #
    def _register_gate(self, gate: VotingGate) -> GateInput:
        if gate.name in self.gates:
            raise ModelError(f"duplicate gate name {gate.name!r}")
        self.gates[gate.name] = gate
        return GateInput.from_gate(gate.name)

    def _compile(self, expression: Expression, name: str) -> GateInput:
        """Compile ``expression`` into gate inputs, creating sub-gates as needed."""
        if isinstance(expression, Literal):
            return GateInput.from_literal(expression, self.model)
        if isinstance(expression, KOutOfN):
            children = [
                self._compile(child, f"{name}.{index + 1}")
                for index, child in enumerate(expression.children)
            ]
            return self._register_gate(
                VotingGate(name, expression.k, tuple(children))
            )
        if isinstance(expression, (And, Or)):
            compiled = [
                self._compile(child, f"{name}.{index + 1}")
                for index, child in enumerate(expression.children)
            ]
            return self._compile_connective(compiled, name, isinstance(expression, And))
        raise ModelError(f"unknown expression node {expression!r}")

    def _compile_connective(
        self, inputs: list[GateInput], name: str, is_and: bool
    ) -> GateInput:
        """Build a (possibly narrowed) gate tree for a conjunction/disjunction.

        Wide gates are split into a balanced tree of gates of width at most
        :data:`GATE_WIDTH`; splitting is sound because both connectives are
        associative.  The gate registered under ``name`` is the root of the
        tree.
        """
        width = GATE_WIDTH
        level = 0
        while len(inputs) > width:
            grouped: list[GateInput] = []
            for chunk_index, start in enumerate(range(0, len(inputs), width)):
                chunk = inputs[start : start + width]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                    continue
                sub_name = f"{name}.n{level}.{chunk_index}"
                k = len(chunk) if is_and else 1
                grouped.append(self._register_gate(VotingGate(sub_name, k, tuple(chunk))))
            inputs = grouped
            level += 1
        k = len(inputs) if is_and else 1
        return self._register_gate(VotingGate(name, k, tuple(inputs)))

    def _compile_top(self, expression: Expression) -> str:
        """Compile the SYSTEM DOWN expression; always produce a labelled top gate."""
        if isinstance(expression, Literal):
            gate = VotingGate(
                SYSTEM_GATE_NAME,
                1,
                (GateInput.from_literal(expression, self.model),),
                labels_when_failed=frozenset({DOWN_LABEL}),
            )
            self.gates[SYSTEM_GATE_NAME] = gate
            return SYSTEM_GATE_NAME
        top_input = self._compile(expression, SYSTEM_GATE_NAME)
        # The compilation of a non-literal expression registers the top gate
        # under SYSTEM_GATE_NAME; attach the "down" label to it.
        gate = self.gates[SYSTEM_GATE_NAME]
        self.gates[SYSTEM_GATE_NAME] = VotingGate(
            gate.name, gate.k, gate.inputs, labels_when_failed=frozenset({DOWN_LABEL})
        )
        del top_input
        return SYSTEM_GATE_NAME

    # ------------------------------------------------------------------ #
    # translation
    # ------------------------------------------------------------------ #
    def translate(self) -> TranslatedModel:
        """Produce the I/O-IMC of every building block of the model."""
        self.model.validate()
        assert self.model.system_down is not None
        self.gates = {}
        top = self._compile_top(self.model.system_down)

        self.built = self.reused = 0
        blocks: dict[str, IOIMC] = {}
        for name, component in self.model.components.items():
            blocks[name] = self._block(ComponentTranslator(component, self.model))
        for name, unit in self.model.repair_units.items():
            blocks[name] = self._block(RepairUnitTranslator(unit, self.model))
        for name, unit in self.model.spare_units.items():
            blocks[name] = self._block(SpareUnitTranslator(unit, self.model))
        for name, gate in self.gates.items():
            blocks[name] = self._block(GateTranslator(gate))
        return TranslatedModel(self.model, blocks, top, dict(self.gates))

    def _block(self, translator: BlockTranslator) -> IOIMC:
        """The block ``translator`` builds, served from the memo on a known key."""
        key = translator.key()
        block = self.blocks.get(key)
        if block is None:
            block = self.blocks[key] = translator.build()
            self.built += 1
        else:
            self.reused += 1
        return block


def translate_model(
    model: ArcadeModel,
    *,
    blocks: dict[tuple | VotingGate, IOIMC] | None = None,
) -> TranslatedModel:
    """Translate ``model`` into the I/O-IMCs of its building blocks.

    ``blocks`` is the memo of :class:`ModelTranslator` (``None`` builds
    every block afresh).
    """
    with telemetry_span("arcade.translate") as span:
        translator = ModelTranslator(model, blocks=blocks)
        translated = translator.translate()
        span.set(
            blocks=len(translated.blocks),
            built=translator.built,
            reused=translator.reused,
        )
    return translated


__all__ = [
    "DOWN_LABEL",
    "SYSTEM_GATE_NAME",
    "ModelTranslator",
    "TranslatedModel",
    "translate_model",
]
