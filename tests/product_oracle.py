"""Test-only oracles for the parallel-composition product.

Two executable specifications of :mod:`repro.ioimc.composition` live here:

* :func:`product_tables_pairwise` — the seed's scalar pair-by-pair frontier
  loop, against which the batched engine is checked state for state
  (``tests/test_compose_equivalence.py``);
* :func:`cut_product` — the unfused step pipeline *product → hide →
  maximal-progress cut → restrict to reachable*, against which the fused
  ``compose(..., maximal_progress=True)`` is checked through the pair-code
  bijection (``tests/differential/test_fused_product.py``).

:func:`use_unfused_composer` routes every :class:`~repro.composer.Composer`
step through the unfused pipeline, so the pre-fusion state-space figures
(the full products) stay pinned next to the fused ones.
"""

from __future__ import annotations

from repro.composer import composer as composer_module
from repro.composer.composer import Composer
from repro.ioimc import IOIMC, compose, hide
from repro.ioimc.composition import _product_tables_batched
from repro.lumping import maximal_progress_cut


# --------------------------------------------------------------------------- #
# the scalar product
# --------------------------------------------------------------------------- #
def product_tables_pairwise(
    left: IOIMC, right: IOIMC
) -> tuple[list[int], list[list[tuple[str, int]]], list[list[tuple[float, int]]]]:
    """Scalar pair-by-pair product of two input-enabled I/O-IMCs.

    Returns ``(pairs, interactive, markovian)``: the pair code of every
    composite state (depth-first discovery order) and its rows.
    """
    shared = left.signature.visible & right.signature.visible
    left_buckets = _action_buckets(left)
    right_buckets = _action_buckets(right)
    left_markovian = left.markovian
    right_markovian = right.markovian

    width = right.num_states
    index: dict[int, int] = {}
    pairs: list[int] = []
    interactive: list[list[tuple[str, int]]] = []
    markovian: list[list[tuple[float, int]]] = []

    def discover(pair: int) -> int:
        state = len(pairs)
        index[pair] = state
        pairs.append(pair)
        interactive.append([])
        markovian.append([])
        return state

    index_get = index.get

    initial = discover(left.initial * width + right.initial)
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        left_state, right_state = divmod(pairs[state], width)
        before = len(pairs)
        out_interactive: list[tuple[str, int]] = []
        out_markovian: list[tuple[float, int]] = []

        left_by_action = left_buckets[left_state]
        right_by_action = right_buckets[right_state]
        left_base = left_state * width

        for action, left_targets in left_by_action.items():
            if action in shared:
                for left_target in left_targets:
                    target_base = left_target * width
                    for right_target in right_by_action.get(action, ()):
                        code = target_base + right_target
                        successor = index_get(code)
                        if successor is None:
                            successor = discover(code)
                        out_interactive.append((action, successor))
            else:
                for left_target in left_targets:
                    code = left_target * width + right_state
                    successor = index_get(code)
                    if successor is None:
                        successor = discover(code)
                    out_interactive.append((action, successor))
        for action, right_targets in right_by_action.items():
            if action in shared:
                continue  # handled above (synchronised) or controlled by the left
            for right_target in right_targets:
                code = left_base + right_target
                successor = index_get(code)
                if successor is None:
                    successor = discover(code)
                out_interactive.append((action, successor))

        for rate, target in left_markovian[left_state]:
            code = target * width + right_state
            successor = index_get(code)
            if successor is None:
                successor = discover(code)
            out_markovian.append((rate, successor))
        for rate, target in right_markovian[right_state]:
            code = left_base + target
            successor = index_get(code)
            if successor is None:
                successor = discover(code)
            out_markovian.append((rate, successor))

        # Set semantics per row, first occurrence wins.
        interactive[state] = list(dict.fromkeys(out_interactive))
        markovian[state] = out_markovian
        frontier.extend(range(before, len(pairs)))

    return pairs, interactive, markovian


def _action_buckets(automaton: IOIMC) -> list[dict[str, list[int]]]:
    """Per state: targets grouped by action, in transition order."""
    buckets: list[dict[str, list[int]]] = []
    for row in automaton.interactive:
        by_action: dict[str, list[int]] = {}
        for action, target in row:
            by_action.setdefault(action, []).append(target)
        buckets.append(by_action)
    return buckets


# --------------------------------------------------------------------------- #
# the unfused step pipeline
# --------------------------------------------------------------------------- #
def cut_and_restrict(automaton: IOIMC) -> IOIMC:
    """Maximal-progress cut followed by reachability restriction."""
    return maximal_progress_cut(automaton).restrict_to_reachable()


def cut_product(
    left: IOIMC, right: IOIMC, hidden=(), name: str | None = None
) -> tuple[IOIMC, list[int]]:
    """Product → hide ``hidden`` → cut → restrict, with its pair codes.

    Returns the automaton and the pair code of each of its states.
    """
    product = compose(left, right, name=name)
    full_pairs, _, _ = _product_tables_batched(
        left.ensure_input_enabled(), right.ensure_input_enabled()
    )
    cut, new_of_old = maximal_progress_cut(hide(product, hidden))._restrict_to_reachable()
    pairs = [0] * cut.num_states
    for old, new in enumerate(new_of_old.tolist()):
        if new >= 0:
            pairs[new] = full_pairs[old]
    return cut, pairs


def fused_product(
    left: IOIMC, right: IOIMC, hidden=(), name: str | None = None
) -> tuple[IOIMC, list[int]]:
    """The composer's product (built under maximal progress), hidden, with
    its pair codes."""
    product = compose(left, right, name=name, maximal_progress=True)
    pairs, _, _ = _product_tables_batched(
        left.ensure_input_enabled(),
        right.ensure_input_enabled(),
        maximal_progress=True,
    )
    return hide(product, hidden), pairs


def canonical_form(automaton: IOIMC, pairs: list[int]):
    """Everything an automaton says, keyed by pair code instead of state id.

    Interactive and Markovian edges are sorted multisets of
    ``(source pair, action | rate bytes, target pair)``; rates are compared
    through ``float.hex`` so a one-ulp difference shows.
    """
    index = automaton.index()
    interactive = index.interactive_csr
    markovian = index.markovian_csr
    actions = index.actions
    return {
        "signature": automaton.signature,
        "initial": pairs[automaton.initial],
        "pairs": sorted(pairs),
        "interactive": sorted(
            (pairs[s], actions[a], pairs[t])
            for s, a, t in zip(
                interactive.source.tolist(),
                interactive.action.tolist(),
                interactive.target.tolist(),
            )
        ),
        "markovian": sorted(
            (pairs[s], r.hex(), pairs[t])
            for s, r, t in zip(
                markovian.source.tolist(),
                markovian.rate.tolist(),
                markovian.target.tolist(),
            )
        ),
        "labels": {pairs[s]: props for s, props in automaton.labels.items()},
        "names": {pairs[s]: automaton.state_name(s) for s in automaton.states()},
    }


def use_unfused_composer(monkeypatch) -> None:
    """Make every Composer step build the full product and cut it afterwards.

    The step then runs product → hide → cut → restrict → (vanishing-chain
    elimination, minimisation), so ``states_before_reduction`` is the size
    of the full product again.  The cut goes in front of
    :meth:`Composer._prune`, the stage every step prefix (and the final
    reduction) runs after hiding.
    """
    prune = Composer._prune

    def full_product(left, right, name=None, *, maximal_progress=False):
        return compose(left, right, name=name)

    def cut_then_prune(self, automaton):
        return prune(self, cut_and_restrict(automaton))

    monkeypatch.setattr(composer_module, "compose", full_product)
    monkeypatch.setattr(Composer, "_prune", cut_then_prune)
