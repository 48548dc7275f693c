"""Partition data structure shared by the minimisation algorithms.

:class:`Partition` stores the block assignment the refinement engine of
:mod:`repro.lumping.refinement` computes; :func:`label_codes` builds the
engine's initial ``int64`` codes from the atomic propositions.  The
round-based reference refinement the engine is checked against lives with
the tests (``tests/lumping_oracle.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..ctmc import CTMC
    from ..ioimc import IOIMC


class Partition:
    """A partition of the states ``0 .. n-1`` into numbered blocks."""

    def __init__(self, block_of: Sequence[int]):
        self.block_of: list[int] = list(block_of)
        self.num_blocks = (max(self.block_of) + 1) if self.block_of else 0


def label_codes(system: IOIMC | CTMC) -> np.ndarray:
    """One ``int64`` code per state of ``system`` (an I/O-IMC or a CTMC),
    equal iff the states carry equal atomic propositions.

    Reads only ``num_states`` and the ``labels`` mapping: unlabelled states,
    usually the vast majority, keep code ``0``, and the labelled ones get
    their label set's interned id.
    """
    codes = np.zeros(system.num_states, dtype=np.int64)
    labels = system.labels
    if labels:
        interned: dict[frozenset[str], int] = {}
        codes[np.fromiter(labels, dtype=np.int64, count=len(labels))] = np.fromiter(
            (interned.setdefault(props, len(interned) + 1) for props in labels.values()),
            dtype=np.int64,
            count=len(labels),
        )
    return codes


__all__ = ["Partition", "label_codes"]
