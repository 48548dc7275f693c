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

The two damping factors are the model's only parameters.  The defaults were
fitted against the recorded per-step statistics of the DDS and RCS case
studies, and :meth:`CostModel.calibrated` re-fits them from any
:class:`~repro.composer.CompositionStatistics` — so every real run can
refine the model for the model family it came from.

The estimator is intentionally crude in absolute terms; what the search
needs is a *ranking* of candidate orders, and for that the peak (and total)
predicted sizes are the signal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder, CompositionStatistics
from ..composer.ordering import flatten_order
from ..errors import PlannerError

#: Reachability damping applied once per visible action shared between the
#: two operands of a composition step.  Fitted (via :meth:`CostModel.calibrated`)
#: on the recorded per-step statistics of the DDS and RCS hierarchical runs,
#: which agree closely (0.69-0.71).
DEFAULT_SYNC_DAMPING = 0.70
#: Reduction damping applied once per signal hidden right after a step; the
#: same fits give 0.66-0.72 across the case studies.
DEFAULT_HIDE_DAMPING = 0.69
#: Fitted damping factors are clipped into this range: a factor of 1 means
#: "no effect", and factors below the floor would let a single step predict
#: an implausible collapse to nothing.
_DAMPING_BOUNDS = (0.05, 1.0)


@dataclass(frozen=True)
class CostParameters:
    """The two damping factors of the static size estimator."""

    sync_damping: float = DEFAULT_SYNC_DAMPING
    hide_damping: float = DEFAULT_HIDE_DAMPING

    def as_dict(self) -> dict[str, float]:
        return {"sync_damping": self.sync_damping, "hide_damping": self.hide_damping}

    @staticmethod
    def from_dict(data: dict) -> "CostParameters":
        return CostParameters(
            sync_damping=float(data["sync_damping"]),
            hide_damping=float(data["hide_damping"]),
        )


def save_cost_parameters(
    path: "str | Path",
    parameters: CostParameters,
    *,
    family: str,
    source: str | None = None,
) -> None:
    """Persist fitted damping factors as JSON next to a benchmark artifact.

    ``family`` names the model family the parameters were fitted on (e.g.
    ``"dds"``); ``source`` optionally records where the fit came from (a
    benchmark name, a statistics run).  The file round-trips through
    :func:`load_cost_parameters`, which :func:`repro.planner.plan_order` and
    ``Composer(order="auto", plan_parameters=...)`` accept in place of the
    built-in DDS/RCS-fitted defaults — closing the calibration loop: every
    benchmark run can refine the planner for its model family.
    """
    payload: dict[str, object] = {"family": family, **parameters.as_dict()}
    if source is not None:
        payload["source"] = source
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_cost_parameters(path: "str | Path") -> CostParameters:
    """Load damping factors persisted by :func:`save_cost_parameters`.

    A missing or unreadable file, invalid JSON, or a payload without the two
    damping factors raises :class:`~repro.errors.PlannerError` naming the
    path — a sweep that points ``plan_parameters=`` at a stale artifact gets
    a one-line diagnosis instead of a raw traceback mid-run.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise PlannerError(
            f"cannot read cost-parameter file {path}: {error}"
        ) from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise PlannerError(
            f"corrupt cost-parameter file {path}: not valid JSON ({error})"
        ) from error
    try:
        return CostParameters.from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise PlannerError(
            f"corrupt cost-parameter file {path}: missing or malformed "
            f"damping factors ({error!r}); expected keys 'sync_damping' and "
            "'hide_damping' with numeric values"
        ) from error


def resolve_cost_parameters(
    parameters: "CostParameters | str | Path | None",
) -> CostParameters | None:
    """Normalise a ``plan_parameters`` argument (instance, JSON path or None)."""
    if parameters is None or isinstance(parameters, CostParameters):
        return parameters
    return load_cost_parameters(parameters)


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

    def __init__(
        self,
        translated: TranslatedModel,
        parameters: CostParameters | None = None,
    ) -> None:
        self.translated = translated
        self.parameters = parameters or CostParameters()
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
        #: Positional forms of the leaf blocks (filled lazily by
        #: :meth:`block_fingerprint`): the isomorphism-aware search asks for
        #: the same digests when classifying sibling groups and when scoring
        #: cache-aware chains, so they are memoised once per model.
        self._block_fingerprints: dict[str, tuple[str, tuple[str, ...]]] = {}
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
    def block_fingerprint(self, name: str) -> tuple[str, tuple[str, ...]]:
        """Positional form ``(digest, slots)`` of one leaf block (memoised).

        Structure up to signal renaming
        (:func:`repro.composer.cache.positional_form`): equal digests mark
        the replicated blocks the isomorphism-aware search treats as
        interchangeable, and the slot lists let it compare their wiring.
        """
        fingerprint = self._block_fingerprints.get(name)
        if fingerprint is None:
            from ..composer.cache import positional_form

            fingerprint = positional_form(self.translated.blocks[name])
            self._block_fingerprints[name] = fingerprint
        return fingerprint

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
        parameters = self.parameters
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
        pre = left.states * right.states * parameters.sync_damping**shared
        post = max(pre * parameters.hide_damping**hidden, 1.0)
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

    # ------------------------------------------------------------------ #
    # calibration from recorded statistics
    # ------------------------------------------------------------------ #
    def calibrated(
        self,
        statistics: CompositionStatistics,
        *,
        order: CompositionOrder | None = None,
    ) -> "CostModel":
        """A copy of this model with damping factors re-fitted from a real run.

        The *hide* damping is fitted from every recorded step that hid at
        least one signal: each such step observed a
        post/pre ratio ``after/before`` produced by ``h`` hidden signals, so
        it votes ``(after/before) ** (1/h)``; the fit is the geometric mean
        of the votes.  When ``order`` (the order the statistics were recorded
        under) is given, the *sync* damping is fitted the same way from the
        ratio between each step's actual pre-reduction size and the raw
        product of its operands' actual sizes.  Steps provide no signal for a
        factor (nothing hidden / nothing shared) simply don't vote; with no
        votes at all the current value is kept.
        """
        hide_votes: list[float] = []
        for step in statistics.steps:
            hidden = len(step.hidden_actions)
            if hidden == 0 or step.states_before_reduction <= 0:
                continue
            ratio = step.states_after_reduction / step.states_before_reduction
            if ratio <= 0:
                continue
            hide_votes.append(_clip(ratio ** (1.0 / hidden)))

        sync_votes: list[float] = []
        if order is not None:
            sync_votes = self._sync_votes(statistics, order)

        parameters = self.parameters
        if hide_votes:
            parameters = replace(parameters, hide_damping=_geometric_mean(hide_votes))
        if sync_votes:
            parameters = replace(parameters, sync_damping=_geometric_mean(sync_votes))
        return CostModel(self.translated, parameters)

    def _sync_votes(
        self, statistics: CompositionStatistics, order: CompositionOrder
    ) -> list[float]:
        """Per-step sync-damping estimates from replaying ``order``.

        Replays the order's binary steps in the composer's traversal order
        (which is the order the statistics were recorded in), pairing each
        step with its record: the left/right operand sizes are the *actual*
        recorded post-reduction sizes, so the only unknown in
        ``before = left * right * damping**shared`` is the damping.
        """
        steps = statistics.steps
        pairs = list(self._binary_steps(order))
        if len(pairs) != len(steps):
            raise ValueError(
                f"order has {len(pairs)} composition steps but the statistics "
                f"recorded {len(steps)}; calibrate with the order the run used"
            )
        actual_states: dict[frozenset[str], float] = {}
        votes: list[float] = []
        for (left_blocks, right_blocks), step in zip(pairs, steps):
            left = actual_states.get(left_blocks)
            if left is None:
                left = self._leaf_states(left_blocks)
            right = actual_states.get(right_blocks)
            if right is None:
                right = self._leaf_states(right_blocks)
            combined = left_blocks | right_blocks
            actual_states[combined] = float(step.states_after_reduction)
            shared = len(
                self._visible_of(left_blocks) & self._visible_of(right_blocks)
            )
            raw = left * right
            if shared == 0 or raw <= 0 or step.states_before_reduction <= 0:
                continue
            ratio = step.states_before_reduction / raw
            votes.append(_clip(ratio ** (1.0 / shared)))
        return votes

    def _leaf_states(self, blocks: frozenset[str]) -> float:
        if len(blocks) != 1:
            raise ValueError(f"no recorded size for sub-composite {sorted(blocks)}")
        (name,) = blocks
        return self._block_states[name]

    def _visible_of(self, blocks: frozenset[str]) -> frozenset[str]:
        """Predicted visible set of a composed block set (hiding applied)."""
        visible: set[str] = set()
        for name in blocks:
            visible |= self._block_visible[name]
        hidden = {
            action
            for action in visible
            if self._emitter_of.get(action) in blocks
            and self._listeners[action] <= blocks
        }
        return frozenset(visible - hidden)

    def _binary_steps(
        self, order: CompositionOrder | str
    ) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
        """The ``(left blocks, right blocks)`` of every binary step, in
        the composer's traversal (= statistics recording) order."""
        if isinstance(order, str):
            return
        members = list(order)
        yield from self._binary_steps(members[0])
        accumulated = frozenset(flatten_order(members[0]))
        for member in members[1:]:
            yield from self._binary_steps(member)
            added = frozenset(flatten_order(member))
            yield accumulated, added
            accumulated |= added


def _clip(value: float) -> float:
    low, high = _DAMPING_BOUNDS
    return min(high, max(low, value))


def _geometric_mean(values: list[float]) -> float:
    return _clip(math.exp(sum(math.log(v) for v in values) / len(values)))


__all__ = [
    "CostModel",
    "CostParameters",
    "CostState",
    "DEFAULT_HIDE_DAMPING",
    "DEFAULT_SYNC_DAMPING",
    "load_cost_parameters",
    "resolve_cost_parameters",
    "save_cost_parameters",
]
