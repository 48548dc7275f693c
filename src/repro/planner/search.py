"""Search over composition orders: a structured seed refined by annealing.

The search space of raw leaf permutations is badly plateaued: almost every
early extension of a left-deep chain has the same predicted cost (two
unrelated three-state components look identical no matter which cluster
they belong to).  The planner therefore starts from an order that already
has the structure the cost gradient lives in, and only refines it:

* :func:`affinity_groups` partitions the non-gate blocks into the connected
  components of the *shared-signal graph* (two blocks are adjacent when
  their visible action sets intersect — a repair unit and its components, a
  spare management unit and its processors).  On the case studies this
  recovers exactly the paper's hand-written subsystem decomposition; the
  blocks inside a group are pre-ordered by a signal-closing mini-greedy.
* :func:`gate_tree_group_order` chains the groups along a depth-first walk
  of the fault tree — the seed order.
* :func:`score_groups` prices a group chain with the cost model under the
  nested semantics of :func:`repro.composer.hierarchical_order`: a group is
  composed (and reduced) on its own, then joined to the accumulated
  composite, with every fault-tree gate placed by the earliest-hiding rule
  of :class:`~repro.composer.GateScheduler`.
* :func:`anneal_order` refines the seed by simulated annealing over leaf
  permutations: swapping whole groups, swapping blocks within a group and
  moving single blocks between groups — so the search can repair a
  grouping the affinity graph got wrong.  Moves are accepted when they
  lower the energy (log predicted peak plus a small cumulative-size term)
  or with the Metropolis probability under geometric cooling.

Gate placement is always a deterministic function of the leaf order, so the
search space stays ``n!`` instead of ``(n + gates)!`` and every candidate
is legal by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..arcade.semantics import TranslatedModel
from ..composer.ordering import GateScheduler
from ..ioimc.actions import natural_sort_key
from .costmodel import CostModel, CostState


@dataclass(frozen=True)
class SearchResult:
    """A scored candidate order."""

    groups: tuple[tuple[str, ...], ...]
    cost: CostState
    explored: int


# --------------------------------------------------------------------------- #
# affinity grouping
# --------------------------------------------------------------------------- #
def affinity_groups(translated: TranslatedModel) -> list[list[str]]:
    """Connected components of the shared-signal graph over non-gate blocks.

    Two blocks land in the same group when their visible action sets
    intersect (directly — fault-tree gates do not contribute edges, so
    independent subsystems stay separate even though they all feed the
    system fault tree).  Within a group the blocks are ordered by a
    signal-closing mini-greedy: start from the smallest block, repeatedly
    append the block sharing the most visible actions with the group so far
    (ties towards smaller blocks, then names).  Groups are returned sorted
    by their first block name; the group *order* is the search's job.
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


def gate_tree_group_order(
    scheduler: GateScheduler, groups: list[list[str]]
) -> list[int]:
    """Group chaining order following a depth-first walk of the fault tree.

    Visiting the system gate's subtrees one at a time — in the gates'
    *input order*, which preserves the tree's construction sequence —
    completes each gate's leaf set as early as possible, so gates (and the
    hides they unlock) interleave with the chain in the same cascade the
    balanced gate tree closes in, instead of piling up at the end.  This is
    the structure behind the paper's hand-written hierarchical orders, and
    the planner's seed; groups no gate observes are appended at the end.
    """
    group_of_leaf = {
        leaf: index for index, group in enumerate(groups) for leaf in group
    }
    order: list[int] = []
    seen: set[int] = set()

    def visit_gate(gate: str) -> None:
        for dependency in scheduler.ordered_dependencies(gate):
            if dependency in scheduler.gate_names:
                visit_gate(dependency)
            else:
                index = group_of_leaf.get(dependency)
                if index is not None and index not in seen:
                    seen.add(index)
                    order.append(index)

    observed = {
        dependency
        for gate in scheduler.gate_names
        for dependency in scheduler.direct_dependencies(gate)
    }
    roots = sorted(gate for gate in scheduler.gate_names if gate not in observed)
    for root in roots:
        visit_gate(root)
    for index in range(len(groups)):
        if index not in seen:
            order.append(index)
    return order


# --------------------------------------------------------------------------- #
# scoring
# --------------------------------------------------------------------------- #
def score_groups(
    model: CostModel,
    scheduler: GateScheduler,
    groups: tuple[tuple[str, ...], ...],
) -> CostState:
    """Score a group chain under :func:`hierarchical_order`'s nested semantics.

    Every group is folded (and its inner gates appended) on its own, then
    joined to the accumulated composite; gates spanning several groups are
    composed at the join as soon as their leaves are covered.
    """
    unassigned = set(scheduler.gate_names)
    cumulative: set[str] = set()
    accumulated: CostState | None = None
    for group in groups:
        group_set = set(group)
        cumulative |= group_set
        state = None
        for name in group:
            state = (
                model.leaf(name) if state is None else model.combine(state, model.leaf(name))
            )
        inner = scheduler.ready_gates(unassigned, group_set)
        unassigned -= set(inner)
        for gate in inner:
            state = model.combine(state, model.leaf(gate))
        assert state is not None, "empty group in candidate order"
        accumulated = (
            state if accumulated is None else model.combine(accumulated, state)
        )
        joins = scheduler.ready_gates(unassigned, cumulative)
        unassigned -= set(joins)
        for gate in joins:
            accumulated = model.combine(accumulated, model.leaf(gate))
    assert accumulated is not None, "cannot score an empty group chain"
    return accumulated


# --------------------------------------------------------------------------- #
# simulated annealing
# --------------------------------------------------------------------------- #
def anneal_order(
    model: CostModel,
    scheduler: GateScheduler,
    start: tuple[tuple[str, ...], ...],
    *,
    iterations: int,
    rng: random.Random,
    initial_temperature: float = 0.6,
    final_temperature: float = 0.02,
) -> SearchResult:
    """Refine a group chain by simulated annealing over leaf permutations.

    Moves: swap two whole groups, swap two blocks inside one group, or move
    a single block into another group (never emptying its source) — so both
    the chaining order and the grouping itself are searched.  Returns the
    best candidate seen (``start`` itself when nothing beats it), with the
    number of candidates scored.
    """
    current = tuple(tuple(group) for group in start)
    current_cost = score_groups(model, scheduler, current)
    current_energy = _energy(current_cost)
    best, best_cost = current, current_cost
    explored = 0
    total_leaves = sum(len(group) for group in current)
    if total_leaves < 2 or iterations <= 0:
        return SearchResult(groups=best, cost=best_cost, explored=explored)

    cooling = (final_temperature / initial_temperature) ** (1.0 / max(iterations - 1, 1))
    temperature = initial_temperature
    for _ in range(iterations):
        candidate = _mutate(current, rng)
        if candidate is None:
            continue
        candidate_cost = score_groups(model, scheduler, candidate)
        explored += 1
        candidate_energy = _energy(candidate_cost)
        delta = candidate_energy - current_energy
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, current_cost, current_energy = (
                candidate,
                candidate_cost,
                candidate_energy,
            )
            if (candidate_cost.peak, candidate_cost.total) < (
                best_cost.peak,
                best_cost.total,
            ):
                best, best_cost = candidate, candidate_cost
        temperature *= cooling

    return SearchResult(groups=best, cost=best_cost, explored=explored)


def _mutate(
    groups: tuple[tuple[str, ...], ...], rng: random.Random
) -> tuple[tuple[str, ...], ...] | None:
    """One random move; ``None`` when the drawn move is a no-op."""
    mutable = [list(group) for group in groups]
    move = rng.random()
    if move < 0.34 and len(mutable) > 1:
        i, j = rng.sample(range(len(mutable)), 2)
        mutable[i], mutable[j] = mutable[j], mutable[i]
    elif move < 0.67:
        candidates = [index for index, group in enumerate(mutable) if len(group) > 1]
        if not candidates:
            return None
        index = rng.choice(candidates)
        group = mutable[index]
        i, j = rng.sample(range(len(group)), 2)
        group[i], group[j] = group[j], group[i]
    else:
        if len(mutable) < 2:
            return None
        sources = [index for index, group in enumerate(mutable) if len(group) > 1]
        if not sources:
            return None
        source = rng.choice(sources)
        target = rng.randrange(len(mutable) - 1)
        if target >= source:
            target += 1
        block = mutable[source].pop(rng.randrange(len(mutable[source])))
        mutable[target].insert(rng.randrange(len(mutable[target]) + 1), block)
    return tuple(tuple(group) for group in mutable)


def _energy(cost: CostState) -> float:
    return math.log(max(cost.peak, 1.0)) + 0.1 * math.log(max(cost.total, 1.0))


__all__ = [
    "SearchResult",
    "affinity_groups",
    "anneal_order",
    "gate_tree_group_order",
    "score_groups",
]
