"""Composition-order helpers.

"The order in which the I/O-IMC models are composed is given by the user"
(Section 4 of the paper) — and choosing it well is what makes compositional
aggregation effective.  This module provides

* :class:`GateScheduler` — the *earliest-hiding* gate placement rule: every
  fault-tree gate is scheduled at the earliest point of a composition chain
  at which all of the non-gate blocks it (transitively) observes have been
  composed, so its signals can be hidden immediately.  The rule is shared by
  :func:`hierarchical_order` and the fault-tree walk of
  :mod:`repro.planner`.
* :func:`hierarchical_order` — turns a *subsystem decomposition* (an ordered
  list of groups of basic blocks, e.g. "the processors", "controller set 1",
  "disk cluster 3", ...) into a full nested composition order: the blocks of
  each group are composed together first, gates are placed by the
  earliest-hiding rule, and the groups are chained left-deep, so that each
  step adds one small subsystem to the accumulated composite instead of
  multiplying two large halves.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..arcade.semantics import TranslatedModel
from ..errors import CompositionError
from .composer import CompositionOrder


class GateScheduler:
    """Earliest-hiding placement of fault-tree gates in a composition order.

    A gate observes a set of *leaf* blocks — the non-gate emitters of the
    signals it (transitively, through other gates) listens to.  The gate can
    be composed, and its own output immediately hidden, as soon as all of its
    leaves are part of the accumulated composite; composing it any later
    keeps its inputs unconstrained and its signals open.  This class answers
    the two questions both the hierarchical order builder and the planner's
    fault-tree walk ask: *which leaves does this gate observe* and *which gates
    become schedulable once a given leaf set is composed*.
    """

    def __init__(self, translated: TranslatedModel) -> None:
        self.translated = translated
        blocks = translated.blocks
        self.gate_names = frozenset(translated.gates)
        self.non_gate_blocks = [
            name for name in blocks if name not in self.gate_names
        ]
        #: For every output signal, the block that emits it.
        self.emitter_of: dict[str, str] = {}
        for name, block in blocks.items():
            for action in block.signature.outputs:
                self.emitter_of[action] = name
        self._leaves: dict[str, frozenset[str]] = {}

    def direct_dependencies(self, gate: str) -> set[str]:
        """Blocks (gates included) emitting the signals ``gate`` listens to."""
        return {
            self.emitter_of[action]
            for action in self.translated.blocks[gate].signature.inputs
            if action in self.emitter_of
        }

    def ordered_dependencies(self, gate: str) -> list[str]:
        """Like :meth:`direct_dependencies`, in the gate's *input order*.

        The translator compiles the fault tree into voting gates whose input
        tuples preserve the source expression's child order; walking them in
        that order (instead of the unordered signature) reproduces the
        tree's construction sequence, which is what the planner's fault-tree
        walk needs.  Falls back to sorted dependencies for gates without a
        recorded :class:`~repro.arcade.semantics.gate_semantics.VotingGate`.
        """
        voting = self.translated.gates.get(gate) if self.translated.gates else None
        if voting is None:
            return sorted(self.direct_dependencies(gate))
        ordered: list[str] = []
        for gate_input in voting.inputs:
            for signal in gate_input.set_signals:
                source = self.emitter_of.get(signal)
                if source is not None and source not in ordered:
                    ordered.append(source)
        return ordered

    def leaves_of(self, gate: str, _trail: tuple[str, ...] = ()) -> frozenset[str]:
        """Non-gate blocks ``gate`` transitively observes."""
        cached = self._leaves.get(gate)
        if cached is not None:
            return cached
        if gate in _trail:
            raise CompositionError(f"cyclic gate dependency through {gate!r}")
        leaves: set[str] = set()
        for dependency in self.direct_dependencies(gate):
            if dependency in self.gate_names:
                leaves |= self.leaves_of(dependency, _trail + (gate,))
            else:
                leaves.add(dependency)
        frozen = frozenset(leaves)
        self._leaves[gate] = frozen
        return frozen

    def ready_gates(
        self, unassigned: Iterable[str], covered_leaves: set[str] | frozenset[str]
    ) -> list[str]:
        """Gates of ``unassigned`` whose leaves are all in ``covered_leaves``.

        Returned smallest-leaf-set first, then lowest in the gate tree, then
        by name — the order in which they should be composed, so that a gate
        observing another gate's output is placed after it even when both
        observe the same leaves.
        """
        return sorted(
            (gate for gate in unassigned if self.leaves_of(gate) <= covered_leaves),
            key=lambda gate: (len(self.leaves_of(gate)), self._height(gate), gate),
        )

    def _height(self, gate: str) -> int:
        """Longest chain of gates below ``gate`` (0 when it observes none)."""
        return max(
            (
                1 + self._height(dependency)
                for dependency in self.direct_dependencies(gate)
                if dependency in self.gate_names
            ),
            default=0,
        )


def hierarchical_order(
    translated: TranslatedModel, leaf_groups: Sequence[Sequence[str]]
) -> CompositionOrder:
    """Build a nested composition order from a subsystem decomposition.

    Parameters
    ----------
    translated:
        The translated model (provides the block signatures and gate list).
    leaf_groups:
        Ordered groups of *non-gate* block names (components, repair units,
        spare management units).  Group entries may themselves be nested
        sequences — e.g. balanced pairs of isomorphic siblings, whose
        joins the quotient cache can then serve — which are carried into
        the resulting order verbatim, so the pair is composed (and reduced)
        before it joins the group's fold.  Together the groups must cover every
        non-gate block exactly once; the fault-tree gates created by the
        translator are inserted automatically.
    """
    blocks = translated.blocks
    scheduler = GateScheduler(translated)
    gate_names = scheduler.gate_names

    covered: set[str] = set()
    for group in leaf_groups:
        for name in flatten_order(list(group)):
            if name not in blocks:
                raise CompositionError(f"unknown block {name!r} in subsystem decomposition")
            if name in gate_names:
                raise CompositionError(
                    f"{name!r} is a fault-tree gate; gates are scheduled automatically"
                )
            if name in covered:
                raise CompositionError(f"block {name!r} appears in two subsystems")
            covered.add(name)
    missing = set(scheduler.non_gate_blocks) - covered
    if missing:
        raise CompositionError(
            f"subsystem decomposition does not cover block(s) {sorted(missing)}"
        )

    # Every gate is scheduled at the earliest point at which all the blocks it
    # observes (transitively) have been composed.  Gates whose leaves all lie
    # inside a single subsystem become part of that subsystem's *nested* group
    # (so the subsystem is composed and reduced on its own before it is joined
    # to the accumulated composite); gates spanning several subsystems are
    # placed at the join.
    cumulative: set[str] = set()
    unassigned = set(gate_names)
    order: CompositionOrder | None = None
    for group in leaf_groups:
        group_set = set(flatten_order(list(group)))
        cumulative |= group_set
        inner_gates = scheduler.ready_gates(unassigned, group_set)
        unassigned -= set(inner_gates)
        join_gates = scheduler.ready_gates(unassigned, cumulative)
        unassigned -= set(join_gates)
        subgroup: list = list(group) + inner_gates
        if order is None:
            order = subgroup + join_gates
        else:
            nested = subgroup[0] if len(subgroup) == 1 else subgroup
            order = [order, nested, *join_gates]
    if unassigned:
        raise CompositionError(
            f"gates {sorted(unassigned)} observe blocks outside the decomposition"
        )
    assert order is not None
    return order


def flatten_order(order: CompositionOrder | str) -> list[str]:
    """The block names of a (possibly nested) order, in composition sequence."""
    if isinstance(order, str):
        return [order]
    flat: list[str] = []
    for entry in order:
        flat.extend(flatten_order(entry))
    return flat


__all__ = ["GateScheduler", "flatten_order", "hierarchical_order"]
