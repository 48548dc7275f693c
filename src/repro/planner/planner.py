"""Automated composition order: affinity groups placed along the fault tree.

``plan_order(translated)`` returns a ready-to-use
:class:`~repro.composer.CompositionOrder` for the composer.  It is wired
into the stack as ``Composer(order="auto")`` / ``compose_model(order="auto")``
and the ``--order auto`` flag of the case-study CLIs, and is the entry point
for ad-hoc models whose users have no hierarchical decomposition at hand.

The plan is one deterministic walk of the fault tree:

1. :func:`affinity_groups` partitions the non-gate blocks into the connected
   components of the shared-signal graph (a repair unit and its components,
   a spare management unit and its processors).
2. A depth-first walk from every root gate, in the gates' input order,
   ranks each leaf by when it is first reached; a group ranks as its
   earliest leaf.
3. Each group is homed at the deepest gate observing every one of its
   leaves the fault tree observes.  A gate's node holds its child gates'
   nodes and its homed groups, by rank; a child whose node does not cover
   all of that child's leaves cannot close on its own, so its items are
   spliced into the parent's list instead.
4. Every node is folded left-deep, every group one member at a time, and
   each gate is appended right after the fold step that completes its
   leaves (:meth:`~repro.composer.GateScheduler.ready_gates`), so its
   signals are hidden as early as possible.

So each subtree of the fault tree is composed and reduced on its own before
it joins its parent.  The plan reads the translated model and nothing else
(in particular not the composer's quotient cache), so ``order="auto"``
composes one order per model, with the cache on or off.
"""

from __future__ import annotations

from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder, flatten_order
from ..composer.ordering import GateScheduler
from ..ioimc.actions import natural_sort_key
from ..telemetry.trace import span as telemetry_span


def affinity_groups(translated: TranslatedModel) -> list[list[str]]:
    """Connected components of the shared-signal graph over non-gate blocks.

    Two blocks land in the same group when their visible action sets
    intersect (directly — fault-tree gates do not contribute edges, so
    independent subsystems stay separate even though they all feed the
    system fault tree).  Within a group the blocks are ordered by a
    signal-closing mini-greedy: start from the smallest block, repeatedly
    append the block sharing the most visible actions with the group so far
    (ties towards smaller blocks, then names).  Groups are returned sorted
    by their first block name; placing them is the fault-tree walk's job.
    """
    blocks = translated.blocks
    gate_names = set(translated.gates)
    leaves = [name for name in blocks if name not in gate_names]
    visible = {name: blocks[name].signature.visible for name in leaves}

    parent: dict[str, str] = {name: name for name in leaves}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    by_action: dict[str, str] = {}
    for name in leaves:
        for action in visible[name]:
            other = by_action.get(action)
            if other is None:
                by_action[action] = name
            else:
                parent[find(name)] = find(other)

    components: dict[str, list[str]] = {}
    for name in leaves:
        components.setdefault(find(name), []).append(name)

    groups = []
    for members in components.values():
        groups.append(_greedy_group_order(members, visible))
    groups.sort(key=lambda group: natural_sort_key(group[0]))
    return groups


def _greedy_group_order(members: list[str], visible: dict[str, frozenset[str]]) -> list[str]:
    """Order one group's blocks: smallest first, then maximal signal sharing."""
    if len(members) == 1:
        return list(members)
    sizes = {name: len(visible[name]) for name in members}
    remaining = set(members)
    # Natural name order on ties (d_9 before d_10): replicated groups then
    # order their members identically relative to the naming scheme, which
    # keeps the quotient cache's slot pairings aligned across the replicas.
    start = min(remaining, key=lambda name: (sizes[name], natural_sort_key(name)))
    ordered = [start]
    remaining.remove(start)
    open_actions = set(visible[start])
    while remaining:
        best = min(
            remaining,
            key=lambda name: (
                -len(visible[name] & open_actions),
                sizes[name],
                natural_sort_key(name),
            ),
        )
        ordered.append(best)
        remaining.remove(best)
        open_actions |= visible[best]
    return ordered


def plan_order(translated: TranslatedModel) -> CompositionOrder:
    """Plan a composition order for ``translated`` by walking its fault tree.

    ``translated`` holds the building-block I/O-IMCs (from
    :func:`repro.arcade.semantics.translate_model`).  Returns a nested
    order in which every fault-tree subtree closes on its own (see the
    module docstring); planning the same model twice gives the same order.
    """
    with telemetry_span("plan.order") as plan_span:
        groups = affinity_groups(translated)
        order = _walk_order(GateScheduler(translated), groups)
        plan_span.set(groups=len(groups), steps=len(flatten_order(order)) - 1)
        return order


def _walk_order(scheduler: GateScheduler, groups: list[list[str]]) -> CompositionOrder:
    """Place ``groups`` along a depth-first walk of the fault tree."""
    gates = scheduler.gate_names
    observed = {
        dependency for gate in gates for dependency in scheduler.direct_dependencies(gate)
    }
    # The walk: each gate's child gates (a gate observed by several gates
    # belongs to the first that reaches it; ``None`` is the top level) and
    # each leaf's first-reach rank.
    children: dict[str | None, list[str]] = {
        None: sorted(gate for gate in gates if gate not in observed)
    }
    rank: dict[str, int] = {}

    def walk(gate: str) -> None:
        children[gate] = []
        for dependency in scheduler.ordered_dependencies(gate):
            if dependency not in gates:
                rank.setdefault(dependency, len(rank))
            elif dependency not in children:
                children[gate].append(dependency)
                walk(dependency)

    for root in children[None]:
        walk(root)

    # Home every group, with its rank, at the deepest gate observing all its
    # observed leaves.
    homed: dict[str | None, list[tuple[int, list]]] = {}
    unobserved: list[list[str]] = []
    for group in groups:
        watched = {name for name in group if name in rank}
        if not watched:
            unobserved.append(group)
            continue
        home = None
        while deeper := [
            gate for gate in children[home] if watched <= scheduler.leaves_of(gate)
        ]:
            home = deeper[0]
        homed.setdefault(home, []).append((min(rank[name] for name in watched), group))

    def node(gate: str | None) -> tuple[list[tuple[int, list]], set[str]]:
        """The ranked items of ``gate``'s node and the leaves they cover."""
        items = list(homed.get(gate, []))
        covered = {name for _, group in items for name in group}
        for child in children[gate]:
            child_items, child_covered = node(child)
            covered |= child_covered
            if child_items and scheduler.leaves_of(child) <= child_covered:
                items.append((child_items[0][0], [item for _, item in child_items]))
            else:
                items.extend(child_items)
        items.sort(key=lambda item: item[0])
        return items, covered

    top, _ = node(None)
    tree = [item for _, item in top] + unobserved

    unassigned = set(gates)

    def fold(part: list | str) -> CompositionOrder | str:
        """Fold ``part`` left-deep, appending each gate once it is ready."""
        if isinstance(part, str):
            return part
        order: list = []
        covered: set[str] = set()
        for item in part:
            order.append(fold(item))
            covered.update(flatten_order(order[-1]))
            ready = scheduler.ready_gates(unassigned, covered)
            unassigned.difference_update(ready)
            order.extend(ready)
        return order[0] if len(order) == 1 else order

    order = fold(tree)
    return [order] if isinstance(order, str) else order


__all__ = ["affinity_groups", "plan_order"]
