"""Canonical forms, fingerprints and renaming witnesses for I/O-IMCs.

The case studies of the paper are built almost entirely from *replicated*
components: the six disk clusters of the DDS, the duplicated pump lines of
the RCS.  Their I/O-IMCs are pairwise **isomorphic up to action renaming** —
the transition structure is identical, only the concrete signal names
(``failed_d_1!`` vs ``failed_d_5!``) differ.  This module computes a
deterministic *canonical form* that erases both nuisances at once:

* **state numbering** — states are renumbered by a partition-refinement
  colour computation (a Weisfeiler–Leman-style iteration over the CSR
  adjacency of :class:`~repro.ioimc.indexed.TransitionIndex`, refined to a
  discrete partition by deterministic individualisation), so automata whose
  states were merely explored in a different order canonicalise alike;
* **the action alphabet** — actions are renumbered by structural role only
  (their kind plus the multiset of canonical endpoint colours of their
  edges), never by name, so consistently-renamed signals land on the same
  canonical *slot*.  The anonymous internal action :data:`~repro.ioimc.TAU`
  keeps a pinned colour: hiding renames to ``tau`` and the tau-abstracting
  reductions treat it specially, so a witness may never map it elsewhere.

The canonical form yields a stable :attr:`~CanonicalForm.digest` (a SHA-256
over the fully canonicalised structure) and, per visible canonical slot, the
concrete action name occupying it.  Two automata with equal digests are
isomorphic **by construction**: the slot-wise pairing of their concrete
names (:func:`renaming_witness`) is the composition of the two
canonicalisation maps, hence a genuine kind-preserving action bijection.
Equal digests are therefore a *sound* cache-hit criterion — a hash
collision between non-isomorphic automata would require a SHA-256 collision
on their canonical encodings.  The converse direction is deliberately
best-effort: the individualisation tie-break uses original state order, so
two isomorphic automata whose symmetric orbits are numbered inconsistently
*may* canonicalise differently.  That costs a cache hit, never soundness;
on the replicated subtrees the pipeline actually produces (same generator
code, same exploration order modulo renaming) the forms coincide.

:func:`rebase_actions` is the consumer-side primitive: it renames an
automaton's visible actions through a witness and re-sorts the CSR edge
columns into the interned-action order a direct construction under the new
names would have produced, so a cached quotient rebased onto fresh signal
names is indistinguishable from recomputing it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..nputil import unique_sorted
from .actions import ActionKind, Signature, TAU
from .indexed import TransitionIndex
from .ioimc import IOIMC

#: Initial action colours: the three kinds, with ``tau`` pinned separately
#: (it may never be renamed by a witness).
_KIND_COLOUR = {ActionKind.INPUT: 0, ActionKind.OUTPUT: 1, ActionKind.INTERNAL: 2}
_TAU_COLOUR = 3

#: Tags separating the four signature families folded into a state's colour.
_OUT_INTERACTIVE, _IN_INTERACTIVE, _OUT_MARKOVIAN, _IN_MARKOVIAN = range(4)


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical fingerprint of one I/O-IMC.

    ``digest`` is the SHA-256 hex digest of the fully canonicalised
    structure; ``visible_slots`` maps every visible canonical action slot to
    the concrete action name occupying it in *this* automaton (the raw
    material of :func:`renaming_witness`); ``internal_names`` are the
    concrete internal action names (sorted — internals are never renamed);
    ``state_order`` lists the original state indices in canonical order.
    """

    digest: str
    visible_slots: tuple[str, ...]
    internal_names: tuple[str, ...]
    num_states: int
    state_order: tuple[int, ...]

    @property
    def key(self) -> str:
        """Alias for :attr:`digest` (the cache-key component)."""
        return self.digest


def _intern_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Intern aligned ``(first, second)`` int64 pairs to consecutive ids.

    Ids are assigned in sorted pair order, so they are a pure function of
    the pair *values* — the property every colour in this module relies on
    for isomorphism invariance.
    """
    if not len(first):
        return np.empty(0, dtype=np.int64)
    span = int(second.max()) + 1
    _, inverse = np.unique(first * span + second, return_inverse=True)
    return inverse.astype(np.int64)


def _group_by_code_multisets(
    num_owners: int, owner: np.ndarray, code: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Colour rows ``0..num_owners-1`` by ``(base colour, {{codes}})``.

    Multiset semantics: duplicate ``(owner, code)`` pairs count.  Returns an
    ``int64`` colour per owner, assigned in sorted key order (value-invariant,
    like every colour here).  Same folding idea as
    :func:`repro.lumping.refinement.group_states_by_code_sets`, with the
    multiplicities folded into the codes first.
    """
    _, colour = np.unique(base, return_inverse=True)
    colour = colour.astype(np.int64)
    if not len(owner):
        return colour
    # Dedupe (owner, code) pairs, keeping multiplicities as part of the code.
    span = int(code.max()) + 1
    packed = owner * span + code
    unique_packed, counts = np.unique(packed, return_counts=True)
    owner_u = unique_packed // span
    code_u = _intern_pairs(unique_packed % span, counts)

    counts_per_owner = np.bincount(owner_u, minlength=num_owners)
    starts = np.zeros(num_owners, dtype=np.int64)
    np.cumsum(counts_per_owner[:-1], out=starts[1:])
    code_span = int(code_u.max()) + 1 if len(code_u) else 1

    active = np.flatnonzero(counts_per_owner)
    position = 0
    while len(active):
        folded = colour[active] * code_span + code_u[starts[active] + position]
        _, colour[active] = np.unique(folded, return_inverse=True)
        position += 1
        active = active[counts_per_owner[active] > position]
    _, final = np.unique(
        colour * (int(counts_per_owner.max()) + 1) + counts_per_owner,
        return_inverse=True,
    )
    return final.astype(np.int64)


def canonical_form(automaton: IOIMC) -> CanonicalForm:
    """Compute the canonical form (and fingerprint) of ``automaton``."""
    index = automaton.index()
    interactive = index.interactive_csr
    markovian = index.markovian_csr()
    num_states = automaton.num_states
    num_actions = len(index.actions)

    # Rates are interned *exactly* (no quantisation): the fingerprint must
    # never conflate automata whose rates merely round alike.
    if markovian.num_edges:
        _, rate_id = np.unique(markovian.rate, return_inverse=True)
        rate_id = rate_id.astype(np.int64)
    else:
        rate_id = np.empty(0, dtype=np.int64)

    # Initial state colours: atomic propositions (concrete — labels are never
    # renamed) plus the initial-state flag, numbered in sorted key order.
    state_keys = [
        (tuple(sorted(automaton.label_of(state))), state == automaton.initial)
        for state in range(num_states)
    ]
    key_rank = {key: rank for rank, key in enumerate(sorted(set(state_keys)))}
    state_colour = np.fromiter(
        (key_rank[key] for key in state_keys), dtype=np.int64, count=num_states
    )

    # Initial action colours: the kind, with tau pinned.
    action_colour = np.fromiter(
        (
            _TAU_COLOUR if name == TAU else _KIND_COLOUR[kind]
            for name, kind in zip(index.actions, index.kinds)
        ),
        dtype=np.int64,
        count=num_actions,
    )

    isrc = interactive.source.astype(np.int64)
    itgt = interactive.target.astype(np.int64)
    iact = interactive.action.astype(np.int64)
    msrc = markovian.source.astype(np.int64)
    mtgt = markovian.target.astype(np.int64)

    def refine(state_colour: np.ndarray, action_colour: np.ndarray):
        """Iterate the colour refinement to a fixed point."""
        distinct = (len(unique_sorted(state_colour)), len(unique_sorted(action_colour)))
        for _ in range(num_states + num_actions + 2):
            owners = []
            codes = []
            for tag, owner, first, second in (
                (_OUT_INTERACTIVE, isrc, action_colour[iact], state_colour[itgt]),
                (_IN_INTERACTIVE, itgt, action_colour[iact], state_colour[isrc]),
                (_OUT_MARKOVIAN, msrc, rate_id, state_colour[mtgt]),
                (_IN_MARKOVIAN, mtgt, rate_id, state_colour[msrc]),
            ):
                if not len(owner):
                    continue
                owners.append(owner)
                codes.append(_intern_pairs(first, second) * 4 + tag)
            if owners:
                state_colour = _group_by_code_multisets(
                    num_states,
                    np.concatenate(owners),
                    np.concatenate(codes),
                    state_colour,
                )
            if len(iact):
                action_colour = _group_by_code_multisets(
                    num_actions,
                    iact,
                    _intern_pairs(state_colour[isrc], state_colour[itgt]),
                    action_colour,
                )
            now = (len(unique_sorted(state_colour)), len(unique_sorted(action_colour)))
            if now == distinct:
                break
            distinct = now
        return state_colour, action_colour

    # Refine, individualising one state of the smallest ambiguous colour
    # class per round (tie-broken by original index) until the state
    # partition is discrete.  Each round strictly grows the colour count, so
    # the loop terminates in at most ``num_states`` rounds; on the reduced
    # quotients the pipeline fingerprints, one or two rounds suffice.
    state_colour, action_colour = refine(state_colour, action_colour)
    while True:
        sizes = np.bincount(state_colour)
        ambiguous = np.flatnonzero(sizes > 1)
        if not len(ambiguous):
            break
        member = int(np.flatnonzero(state_colour == ambiguous[0])[0])
        state_colour = state_colour * 2
        state_colour[member] += 1  # a fresh colour only this state holds
        # Compact to consecutive ids (value order, hence invariant): when
        # refinement cannot split further — e.g. an automaton without any
        # edges — the doubling above would otherwise grow colour values as
        # 2^rounds and blow up every bincount over them.
        _, state_colour = np.unique(state_colour, return_inverse=True)
        state_colour = state_colour.astype(np.int64)
        state_colour, action_colour = refine(state_colour, action_colour)

    # Canonical numberings.  States are discrete, so sorting by colour is a
    # permutation; actions may retain ties only when two actions label the
    # *same* edge set (truly interchangeable), where any order encodes
    # identically — original id breaks the tie deterministically.
    state_order = np.argsort(state_colour, kind="stable")
    canon_of_state = np.empty(num_states, dtype=np.int64)
    canon_of_state[state_order] = np.arange(num_states, dtype=np.int64)
    action_order = np.lexsort((np.arange(num_actions), action_colour))
    canon_of_action = np.empty(num_actions, dtype=np.int64)
    canon_of_action[action_order] = np.arange(num_actions, dtype=np.int64)

    digest = encode_renumbered(
        automaton,
        index,
        version="ioimc-canonical-v1",
        state_of=canon_of_state,
        action_of=canon_of_action,
        action_order=action_order.tolist(),
    )
    visible_slots = tuple(
        index.actions[original]
        for original in action_order.tolist()
        if index.kinds[original] is not ActionKind.INTERNAL
    )
    internal_names = tuple(
        sorted(
            index.actions[original]
            for original in range(num_actions)
            if index.kinds[original] is ActionKind.INTERNAL
        )
    )
    return CanonicalForm(
        digest=digest,
        visible_slots=visible_slots,
        internal_names=internal_names,
        num_states=num_states,
        state_order=tuple(state_order.tolist()),
    )


def encode_renumbered(
    automaton: IOIMC,
    index: TransitionIndex,
    *,
    version: str,
    state_of: np.ndarray | None,
    action_of: np.ndarray,
    action_order: list[int],
) -> str:
    """SHA-256 over the structure under a state/action renumbering.

    ``state_of`` maps original state ids to encoded ids (``None`` keeps the
    original numbering — the positional leaf form of
    :mod:`repro.composer.cache`); ``action_of`` maps original action ids to
    encoded slots, with ``action_order`` listing the original ids in slot
    order.  Shared by the canonical and the positional fingerprints so the
    two encodings can never silently drift apart.
    """
    interactive = index.interactive_csr
    markovian = index.markovian_csr()
    digest = hashlib.sha256()
    initial = automaton.initial if state_of is None else int(state_of[automaton.initial])
    digest.update(
        f"{version}|{automaton.num_states}|{len(index.actions)}|{initial}".encode()
    )
    # Kinds per encoded action slot (internals encode their concrete name:
    # internal actions are never renamed, so the name is structure).
    kind_row = "|".join(
        index.actions[original]
        if index.kinds[original] is ActionKind.INTERNAL
        else _KIND_CODE[index.kinds[original]]
        for original in action_order
    )
    digest.update(f"|kinds|{kind_row}".encode())
    # Labels per encoded state (concrete names; only labelled states).
    if automaton.labels:
        rows = sorted(
            (
                state if state_of is None else int(state_of[state]),
                ",".join(sorted(props)),
            )
            for state, props in automaton.labels.items()
        )
        digest.update(("|labels|" + ";".join(f"{s}:{p}" for s, p in rows)).encode())
    # Interactive edges as sorted encoded triples.
    source = interactive.source.astype(np.int64)
    target = interactive.target.astype(np.int64)
    if state_of is not None:
        source, target = state_of[source], state_of[target]
    action = action_of[interactive.action.astype(np.int64)]
    order = np.lexsort((target, action, source))
    digest.update(b"|interactive|")
    digest.update(source[order].tobytes())
    digest.update(action[order].tobytes())
    digest.update(target[order].tobytes())
    # Markovian edges as sorted encoded (source, target, exact-rate) rows.
    source = markovian.source.astype(np.int64)
    target = markovian.target.astype(np.int64)
    if state_of is not None:
        source, target = state_of[source], state_of[target]
    rate = markovian.rate
    order = np.lexsort((rate, target, source))
    digest.update(b"|markovian|")
    digest.update(source[order].tobytes())
    digest.update(target[order].tobytes())
    digest.update(np.ascontiguousarray(rate[order], dtype=np.float64).tobytes())
    return digest.hexdigest()


_KIND_CODE = {ActionKind.INPUT: "?", ActionKind.OUTPUT: "!"}


def renaming_witness(
    source: CanonicalForm, target: CanonicalForm
) -> dict[str, str] | None:
    """Action bijection mapping ``source``'s automaton onto ``target``'s.

    Returns ``None`` unless the digests agree.  Equal digests mean both
    automata canonicalise to the identical structure, so pairing their
    concrete names slot by slot is a genuine kind-preserving isomorphism
    witness (internal actions map to themselves; the forms agree on them
    because internal names are part of the encoding).
    """
    if source.digest != target.digest:
        return None
    return dict(zip(source.visible_slots, target.visible_slots))


def rebase_actions(
    automaton: IOIMC, rename: Mapping[str, str], *, name: str | None = None
) -> IOIMC:
    """Rename visible actions of ``automaton`` and re-canonicalise edge order.

    Unlike :meth:`TransitionIndex.with_renamed_actions` (which keeps the old
    edge order), the interactive edge columns are re-sorted by the *new*
    interned action ids — the order every library transformation produces —
    so the result is indistinguishable from having run the construction
    under the new names in the first place.  ``rename`` must be injective on
    the visible actions and must not touch internals.
    """
    signature = automaton.signature
    for old in rename:
        if old in signature.internals:
            raise ValueError(f"cannot rename internal action {old!r}")
    new_inputs = frozenset(rename.get(a, a) for a in signature.inputs)
    new_outputs = frozenset(rename.get(a, a) for a in signature.outputs)
    if len(new_inputs | new_outputs) != len(signature.inputs | signature.outputs):
        raise ValueError("action renaming must be injective on the visible actions")
    new_signature = Signature(new_inputs, new_outputs, signature.internals)

    index = automaton.index()
    old_csr = index.interactive_csr
    new_actions = sorted(new_signature.all_actions)
    new_id_of = {action: aid for aid, action in enumerate(new_actions)}
    remap = np.fromiter(
        (new_id_of[rename.get(action, action)] for action in index.actions),
        dtype=np.int64,
        count=len(index.actions),
    )
    # Re-sort the edges by the new interned ids, *keeping duplicates* — an
    # unreduced compose+hide result may legitimately carry parallel tau
    # edges, and their multiplicity is part of the recorded transition
    # counts.  (Nothing downstream is sensitive to interactive edge order,
    # only to the edge multiset.)
    src = old_csr.source.astype(np.int64)
    act = remap[old_csr.action]
    tgt = old_csr.target.astype(np.int64)
    order = np.lexsort((tgt, act, src))
    new_src, new_act, new_tgt = src[order], act[order], tgt[order]
    from .ioimc import _interactive_csr_from_edges

    rebased = IOIMC.trusted(
        name if name is not None else automaton.name,
        new_signature,
        automaton.num_states,
        automaton.initial,
        None,  # rows materialise lazily from the index attached below
        None,
        automaton.labels,
        automaton.state_names,
    )
    rebased._index = TransitionIndex.from_tables(
        rebased,
        _interactive_csr_from_edges(new_src, new_act, new_tgt, automaton.num_states),
        index.markovian_csr(),
    )
    return rebased


__all__ = [
    "CanonicalForm",
    "canonical_form",
    "encode_renumbered",
    "rebase_actions",
    "renaming_witness",
]
