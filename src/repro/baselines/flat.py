"""Flat (non-compositional) state-space generation.

The point of the compositional aggregation pipeline of Section 4 is that the
*naive* alternative — composing every building block and only then (if at
all) minimising — explodes.  This module provides that naive alternative so
the difference can be measured: the block I/O-IMCs are composed
in a fixed order with **no intermediate reduction and no early hiding**, and
the construction aborts with a :class:`FlatCompositionBudgetExceeded` result
once a state budget is exceeded (which is the expected outcome for anything
but small models).

The whole run stays on the CSR backend: the batched product keeps its flat
arrays (int32 pair codes while both operands fit), ``hide_all_outputs`` only
remaps the interned action column, and the closing
:func:`~repro.ctmc.extract_ctmc` hands the final edge columns straight to
:meth:`repro.ctmc.CTMC.from_arrays` — no stage materialises Python
transition rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arcade.semantics import TranslatedModel
from ..ctmc import CTMC, extract_ctmc, lump
from ..ioimc import IOIMC, compose, hide_all_outputs
from ..lumping import maximal_progress_cut


@dataclass(frozen=True)
class FlatCompositionResult:
    """Outcome of a flat composition run."""

    completed: bool
    states: int
    transitions: int
    blocks_composed: int
    total_blocks: int
    ioimc: IOIMC | None = None
    ctmc: CTMC | None = None

    @property
    def exceeded_budget(self) -> bool:
        return not self.completed


def flat_compose(
    translated: TranslatedModel,
    *,
    max_states: int = 250_000,
    build_ctmc: bool = True,
) -> FlatCompositionResult:
    """Compose every block without intermediate reduction.

    Stops (returning a partial result) as soon as the intermediate product
    exceeds ``max_states`` — reporting how far it got, which is exactly the
    number the "flat vs. compositional" benchmark wants to show.
    """
    blocks = list(translated.blocks.items())
    if not blocks:
        raise ValueError("the translated model has no blocks")
    names = [name for name, _ in blocks]
    composite = blocks[0][1]
    composed = 1
    for name, block in blocks[1:]:
        composite = compose(composite, block, name=f"flat[{composed + 1} blocks]")
        composed += 1
        if composite.num_states > max_states:
            return FlatCompositionResult(
                completed=False,
                states=composite.num_states,
                transitions=composite.num_transitions(),
                blocks_composed=composed,
                total_blocks=len(names),
                ioimc=None,
                ctmc=None,
            )
    closed = hide_all_outputs(composite)
    closed = maximal_progress_cut(closed)
    ctmc = None
    if build_ctmc:
        ctmc = lump(extract_ctmc(closed)).quotient
    return FlatCompositionResult(
        completed=True,
        states=composite.num_states,
        transitions=composite.num_transitions(),
        blocks_composed=composed,
        total_blocks=len(names),
        ioimc=closed,
        ctmc=ctmc,
    )


__all__ = ["FlatCompositionResult", "flat_compose"]
