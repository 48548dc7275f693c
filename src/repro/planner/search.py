"""Search algorithms over composition orders.

The search space of raw leaf permutations is badly plateaued: almost every
early extension of a left-deep chain has the same predicted cost (two
unrelated three-state components look identical no matter which cluster
they belong to), so a naive beam fills with arbitrary prefixes whose
completions explode.  The searches here therefore exploit the structure the
cost gradient actually lives in:

* :func:`affinity_groups` partitions the non-gate blocks into the connected
  components of the *shared-signal graph* (two blocks are adjacent when
  their visible action sets intersect — a repair unit and its components, a
  spare management unit and its processors).  On the case studies this
  recovers exactly the paper's hand-written subsystem decomposition; the
  blocks inside a group are pre-ordered by a signal-closing mini-greedy.
* :func:`beam_search_groups` beam-searches the order in which to chain the
  groups left-deep, scoring each partial chain with the cost model under
  the nested semantics of :func:`repro.composer.hierarchical_order`: a
  group is composed (and reduced) on its own, then joined to the
  accumulated composite, with every fault-tree gate placed by the
  earliest-hiding rule of :class:`~repro.composer.GateScheduler`.
* :func:`anneal_order` refines the winner by simulated annealing over leaf
  permutations: swapping whole groups, swapping blocks within a group and
  moving single blocks between groups — so the search can repair a
  grouping the affinity graph got wrong.  Moves are accepted when they
  lower the energy (log predicted peak plus a small cumulative-size term)
  or with the Metropolis probability under geometric cooling.
* :func:`beam_search` is the flat, leaf-at-a-time beam kept for models
  whose sharing graph is one big component (no decomposition to exploit);
  it ranks partial chains by a lower bound on the final peak.

Gate placement is always a deterministic function of the leaf order, so the
search space stays ``n!`` instead of ``(n + gates)!`` and every candidate
is legal by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..arcade.semantics import TranslatedModel
from ..composer.cache import positional_form
from ..composer.ordering import GateScheduler
from ..ioimc.actions import natural_sort_key
from .costmodel import CostModel, CostState


@dataclass(frozen=True)
class SearchResult:
    """A scored candidate order."""

    groups: tuple[tuple[str, ...], ...]
    cost: CostState
    explored: int

    @property
    def score(self) -> tuple[float, float]:
        """Ranking key: predicted peak first, predicted total as tiebreak."""
        return (self.cost.peak, self.cost.total)

    @property
    def leaves(self) -> tuple[str, ...]:
        """The flattened leaf sequence of this candidate."""
        return tuple(name for group in self.groups for name in group)


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


def group_isomorphism_classes(
    translated: TranslatedModel, groups: list[list[str]]
) -> list[int]:
    """Isomorphism-class id per affinity group (first-occurrence numbering).

    Two groups land in the same class when, position by position, their
    members' positional-form digests
    (:func:`repro.composer.cache.positional_form` — structure up to signal
    renaming) agree **and** their wiring profiles agree in slot
    coordinates: which member slots synchronise with which inside the
    group, how many listeners each signal has outside the group, and
    whether it is emitted from outside.  The wiring part keeps the beam's
    symmetry pruning honest — two structurally identical groups that are
    coupled *differently* to the rest of the model (say, one observed by an
    extra functional dependency) are not interchangeable and must not share
    a class.  On the case studies this recognises exactly the replicated
    subsystems — the DDS disk clusters, the controller sets — whose
    chaining order the beam search canonicalises.
    """
    blocks = translated.blocks
    fingerprint_of = {
        name: positional_form(blocks[name]) for group in groups for name in group
    }
    emitter_of: dict[str, str] = {}
    for name, block in blocks.items():
        for action in block.signature.outputs:
            emitter_of[action] = name

    class_of: dict[tuple, int] = {}
    classes: list[int] = []
    for group in groups:
        fingerprints = [fingerprint_of[name] for name in group]
        group_set = set(group)
        slot_index = [
            {signal: position for position, signal in enumerate(slots)}
            for _, slots in fingerprints
        ]
        profile = []
        for member, (_, slots) in enumerate(fingerprints):
            rows = []
            for signal in slots:
                internal = tuple(
                    sorted(
                        (other, slot_index[other][signal])
                        for other in range(len(group))
                        if other != member and signal in slot_index[other]
                    )
                )
                external_listeners = len(
                    translated.listeners_of(signal) - group_set
                )
                externally_emitted = emitter_of.get(signal) not in group_set
                rows.append((internal, external_listeners, externally_emitted))
            profile.append(tuple(rows))
        signature = (
            tuple(digest for digest, _ in fingerprints),
            tuple(profile),
        )
        classes.append(class_of.setdefault(signature, len(class_of)))
    return classes


def gate_tree_group_order(
    scheduler: GateScheduler, groups: list[list[str]]
) -> list[int]:
    """Group chaining order following a depth-first walk of the fault tree.

    Visiting the system gate's subtrees one at a time — in the gates'
    *input order*, which preserves the tree's construction sequence —
    completes each gate's leaf set as early as possible, so gates (and the
    hides they unlock) interleave with the chain in the same cascade the
    balanced gate tree closes in, instead of piling up at the end.  This is
    the structure behind the paper's hand-written hierarchical orders,
    offered to the search as a seed candidate; groups no gate observes are
    appended at the end.
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


def order_group_by_cost(
    model: CostModel, members: list[str]
) -> list[str]:
    """Order one group's blocks by the cost model itself.

    Tries every member as the chain's start and extends greedily by the
    predicted (peak, total) of the group-internal fold; returns the best
    complete chain.  Group sizes are small (a handful of components plus
    their repair/spare units), so the cubic sweep is trivial — and it beats
    hand-written heuristics like "smallest block first", which tend to pull
    a repair unit in before the components it observes.
    """
    if len(members) <= 2:
        return list(members)
    best_sequence: list[str] | None = None
    best_key: tuple[float, float] | None = None
    for start in members:
        sequence = [start]
        state = model.leaf(start)
        rest = set(members) - {start}
        while rest:
            def extension_key(name: str) -> tuple[float, float, tuple]:
                combined = model.combine(state, model.leaf(name))
                return (combined.peak, combined.total, natural_sort_key(name))

            chosen = min(rest, key=extension_key)
            state = model.combine(state, model.leaf(chosen))
            sequence.append(chosen)
            rest.remove(chosen)
        key = (state.peak, state.total)
        if best_key is None or key < best_key:
            best_sequence, best_key = sequence, key
    assert best_sequence is not None
    return best_sequence


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
# beam searches
# --------------------------------------------------------------------------- #
def beam_search_groups(
    model: CostModel,
    scheduler: GateScheduler,
    groups: list[list[str]],
    *,
    width: int = 6,
    iso_classes: list[int] | None = None,
) -> tuple[SearchResult, int]:
    """Beam search over the left-deep chaining order of affinity groups.

    Candidates carry their accumulated cost state, so extending one by a
    group costs a single :meth:`~repro.planner.costmodel.CostModel.combine`
    (plus the join gates that become ready) instead of re-scoring the whole
    prefix; each group's internal fold — including the gates whose leaves
    lie entirely inside it — is computed once up front.

    ``iso_classes`` (from :func:`group_isomorphism_classes`) canonicalises
    symmetric orders: at every extension point only the first unchosen
    member of each isomorphism class — in the gate-tree walk order of
    :func:`gate_tree_group_order`, which is the order the fault tree pairs
    the replicas in — is tried, so the beam never explores the
    ``k!`` interchangeable permutations of replicated subsystems and the
    number of candidates grows linearly, not quadratically, with the
    replica count.
    """
    explored = 0
    # Per group: its folded cost state (inner gates included) and leaf set.
    group_states: list[CostState] = []
    group_sets: list[frozenset[str]] = []
    inner_assigned: set[str] = set()
    for group in groups:
        group_set = frozenset(group)
        state = None
        for name in group:
            state = (
                model.leaf(name) if state is None else model.combine(state, model.leaf(name))
            )
        inner = scheduler.ready_gates(
            set(scheduler.gate_names) - inner_assigned, group_set
        )
        inner_assigned.update(inner)
        for gate in inner:
            state = model.combine(state, model.leaf(gate))
        assert state is not None, "empty affinity group"
        group_states.append(state)
        group_sets.append(group_set)
    spanning = frozenset(scheduler.gate_names) - inner_assigned

    if iso_classes is None:
        iso_classes = list(range(len(groups)))
    # Members of every class, in gate-tree walk order: the canonical order
    # the interchangeable replicas are chained in.
    tree_rank = {index: rank for rank, index in enumerate(
        gate_tree_group_order(scheduler, groups)
    )}
    members_of_class: dict[int, list[int]] = {}
    for index, iso_class in enumerate(iso_classes):
        members_of_class.setdefault(iso_class, []).append(index)
    for members in members_of_class.values():
        members.sort(key=lambda index: tree_rank.get(index, index))

    # A candidate: (cost state, chosen group indices (set + sequence),
    # cumulative leaf set, unassigned spanning gates).
    candidates: list[
        tuple[CostState | None, frozenset[int], tuple[int, ...], frozenset[str], frozenset[str]]
    ] = [(None, frozenset(), (), frozenset(), spanning)]
    for _ in range(len(groups)):
        extensions: list[tuple] = []
        for state, chosen, sequence, cumulative, unassigned in candidates:
            eligible: list[int] = []
            for members in members_of_class.values():
                for index in members:
                    if index not in chosen:
                        eligible.append(index)
                        break
            for index in eligible:
                new_cumulative = cumulative | group_sets[index]
                group_state = group_states[index]
                new_state = (
                    group_state
                    if state is None
                    else model.combine(state, group_state)
                )
                joins = scheduler.ready_gates(unassigned, new_cumulative)
                for gate in joins:
                    new_state = model.combine(new_state, model.leaf(gate))
                explored += 1
                extensions.append(
                    (
                        new_state,
                        chosen | {index},
                        sequence + (index,),
                        new_cumulative,
                        unassigned - set(joins),
                    )
                )
        extensions.sort(key=lambda entry: (entry[0].peak, entry[0].total, entry[2]))
        candidates = extensions[: max(width, 1)]
    best_state, _, best_sequence, _, _ = candidates[0]
    return (
        SearchResult(
            groups=tuple(tuple(groups[i]) for i in best_sequence),
            cost=best_state,
            explored=explored,
        ),
        explored,
    )


def beam_search(
    model: CostModel,
    scheduler: GateScheduler,
    *,
    width: int = 6,
) -> tuple[SearchResult, int]:
    """Flat beam search over left-deep leaf extensions (single-group models).

    Partial chains are ranked by a *lower bound* on the final peak — the
    larger of the peak so far and the current composite's predicted size
    times the smallest remaining leaf (whatever is composed next multiplies
    the composite at least by that) — then by predicted cumulative size.
    Partial orders covering the same leaf set are deduplicated: they are
    interchangeable continuations, so only the cheapest survives.
    """
    leaves = list(scheduler.non_gate_blocks)
    if not leaves:
        raise ValueError("the translated model has no non-gate blocks to order")
    explored = 0
    num_leaves = len(leaves)
    smallest_leaf = min(model.leaf(name).states for name in leaves)

    def beam_key(candidate: tuple) -> tuple[float, float, tuple[str, ...]]:
        state, composed = candidate[0], candidate[1]
        if len(composed) < num_leaves:
            bound = max(state.peak, state.states * smallest_leaf)
        else:
            bound = state.peak
        return (bound, state.total, candidate[2])

    # A partial candidate: (cost state, composed leaf set, leaf sequence,
    # unassigned gates).  Gates are composed eagerly, so the cost state
    # already includes every gate whose leaves are covered.
    gate_names = set(scheduler.gate_names)
    beam: list[tuple[CostState, frozenset[str], tuple[str, ...], frozenset[str]]] = []
    for leaf in leaves:
        composed = {leaf}
        state = model.leaf(leaf)
        ready = scheduler.ready_gates(gate_names, composed)
        for gate in ready:
            state = model.combine(state, model.leaf(gate))
        beam.append(
            (state, frozenset(composed), (leaf,), frozenset(gate_names) - set(ready))
        )
        explored += 1
    beam.sort(key=beam_key)
    beam = beam[: max(width, 1)]

    for _ in range(len(leaves) - 1):
        extensions: dict[frozenset[str], tuple] = {}
        for state, composed, sequence, unassigned in beam:
            for leaf in leaves:
                if leaf in composed:
                    continue
                new_composed = composed | {leaf}
                new_state = model.combine(state, model.leaf(leaf))
                ready = scheduler.ready_gates(unassigned, new_composed)
                for gate in ready:
                    new_state = model.combine(new_state, model.leaf(gate))
                explored += 1
                candidate = (
                    new_state,
                    new_composed,
                    sequence + (leaf,),
                    unassigned - set(ready),
                )
                # Same leaf set => interchangeable continuations: keep the best.
                best = extensions.get(new_composed)
                if best is None or beam_key(candidate) < beam_key(best):
                    extensions[new_composed] = candidate
        beam = sorted(extensions.values(), key=beam_key)[: max(width, 1)]

    best_state, _, best_sequence, unassigned = beam[0]
    assert not unassigned, (
        f"gates {sorted(unassigned)} never became ready; "
        "their observed blocks are missing from the model"
    )
    # Singleton groups: the flat chain splices gates as soon as they are
    # ready, which is exactly the nested semantics of a chain of one-block
    # groups (and how the beam scored it above).
    result = SearchResult(
        groups=tuple((leaf,) for leaf in best_sequence),
        cost=best_state,
        explored=explored,
    )
    return result, explored


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
) -> tuple[SearchResult, int]:
    """Refine a group chain by simulated annealing over leaf permutations.

    Moves: swap two whole groups, swap two blocks inside one group, or move
    a single block into another group (never emptying its source) — so both
    the chaining order and the grouping itself are searched.  Returns the
    best candidate seen and the number of candidates scored.
    """
    current = tuple(tuple(group) for group in start)
    current_cost = score_groups(model, scheduler, current)
    current_energy = _energy(current_cost)
    best, best_cost = current, current_cost
    explored = 0
    total_leaves = sum(len(group) for group in current)
    if total_leaves < 2 or iterations <= 0:
        return SearchResult(groups=best, cost=best_cost, explored=explored), explored

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

    return SearchResult(groups=best, cost=best_cost, explored=explored), explored


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
    "beam_search",
    "beam_search_groups",
    "gate_tree_group_order",
    "group_isomorphism_classes",
    "order_group_by_cost",
    "score_groups",
]
