"""Static cost model for composition orders.

The planner needs to compare thousands of candidate orders without running a
single real composition, so it scores them with a *static* estimate of the
intermediate state-space sizes the :class:`~repro.composer.Composer` would
encounter.  The model walks a candidate (nested) order exactly the way the
composer does and predicts, per binary composition step,

* the **pre-reduction** product size — the product of the two operands'
  state counts, damped once per *shared* visible action (synchronisation
  constrains reachability, so coupled operands explore less than the full
  Cartesian product), and
* the **post-reduction** size — the pre-reduction estimate damped once per
  signal that becomes *hidable* at this step (a hidden signal turns into the
  anonymous ``tau``, which is what lets bisimulation minimisation merge
  states; empirically each newly closed signal shrinks the reduced model by
  a roughly constant factor).

The two damping factors are the model's only parameters, fitted against the
recorded per-step statistics of the DDS and RCS case studies.

The estimator is intentionally crude in absolute terms; what the search
needs is a *ranking* of candidate orders, and for that the peak (and total)
predicted sizes are the signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder

#: Reachability damping applied once per visible action shared between the
#: two operands of a composition step.  Fitted on the recorded per-step
#: statistics of the DDS and RCS hierarchical runs, which agree closely
#: (0.69-0.71).
SYNC_DAMPING = 0.70
#: Reduction damping applied once per signal hidden right after a step; the
#: same fits give 0.66-0.72 across the case studies.
HIDE_DAMPING = 0.69


@dataclass(frozen=True)
class CostState:
    """Estimated size and open-signal bookkeeping of one (sub)composite.

    ``states`` is the predicted post-reduction state count, ``visible`` the
    predicted visible action set of the composite's signature (member
    visibles minus hidden signals), ``peak``/``total`` the maximum/sum of the
    predicted pre-reduction sizes over all steps taken so far.
    """

    blocks: frozenset[str]
    states: float
    visible: frozenset[str]
    peak: float = 0.0
    total: float = 0.0
    steps: int = 0


class CostModel:
    """Predicts intermediate sizes of composition orders for one model."""

    def __init__(self, translated: TranslatedModel) -> None:
        blocks = translated.blocks
        self._block_states: dict[str, float] = {
            name: float(block.num_states) for name, block in blocks.items()
        }
        self._block_visible: dict[str, frozenset[str]] = {
            name: block.signature.visible for name, block in blocks.items()
        }
        #: For every output signal: its emitter and its listener set (the
        #: blocks that must be composed in before the signal can be hidden).
        self._emitter_of: dict[str, str] = {}
        for name, block in blocks.items():
            for action in block.signature.outputs:
                self._emitter_of[action] = name
        self._listeners: dict[str, frozenset[str]] = {
            action: frozenset(translated.listeners_of(action))
            for action in self._emitter_of
        }
        self._leaf_cache: dict[str, CostState] = {}
        #: The signal-set half of :meth:`combine` — shared count, newly
        #: hidable count, resulting visible set — is a pure function of the
        #: two operands' block sets, so it is memoised; the beam and the
        #: annealer re-fold mostly identical prefixes, making the hit rate
        #: very high.
        self._combine_cache: dict[
            tuple[frozenset[str], frozenset[str]],
            tuple[int, int, frozenset[str], frozenset[str]],
        ] = {}

    # ------------------------------------------------------------------ #
    # incremental estimation (the search's inner loop)
    # ------------------------------------------------------------------ #
    def leaf(self, name: str) -> CostState:
        """Cost state of a single, not-yet-composed block (cached)."""
        state = self._leaf_cache.get(name)
        if state is None:
            state = CostState(
                blocks=frozenset((name,)),
                states=self._block_states[name],
                visible=self._block_visible[name],
            )
            self._leaf_cache[name] = state
        return state

    def combine(self, left: CostState, right: CostState) -> CostState:
        """Predicted result of composing, hiding and reducing two composites."""
        key = (left.blocks, right.blocks)
        cached = self._combine_cache.get(key)
        if cached is None:
            shared = len(left.visible & right.visible)
            blocks = left.blocks | right.blocks
            emitter_of = self._emitter_of
            listeners = self._listeners
            hidden = 0
            opened = []
            for action in left.visible | right.visible:
                emitter = emitter_of.get(action)
                if emitter is None or emitter not in blocks:
                    opened.append(action)  # an input whose emitter is still outside
                elif listeners[action] <= blocks:
                    hidden += 1  # hidable right after this step
                else:
                    opened.append(action)
            cached = (shared, hidden, blocks, frozenset(opened))
            self._combine_cache[key] = cached
        shared, hidden, blocks, visible = cached
        pre = left.states * right.states * SYNC_DAMPING**shared
        post = max(pre * HIDE_DAMPING**hidden, 1.0)
        return CostState(
            blocks=blocks,
            states=post,
            visible=visible,
            peak=max(left.peak, right.peak, pre),
            total=left.total + right.total + pre,
            steps=left.steps + right.steps + 1,
        )

    # ------------------------------------------------------------------ #
    # whole-order estimation
    # ------------------------------------------------------------------ #
    def estimate_order(self, order: CompositionOrder | str) -> CostState:
        """Walk a full (possibly nested) order the way the composer does."""
        if isinstance(order, str):
            return self.leaf(order)
        members = list(order)
        if not members:
            raise ValueError("empty group in composition order")
        state = self.estimate_order(members[0])
        for member in members[1:]:
            state = self.combine(state, self.estimate_order(member))
        return state


__all__ = ["CostModel", "CostState", "HIDE_DAMPING", "SYNC_DAMPING"]
