"""Partition data structure shared by the minimisation algorithms.

:class:`Partition` stores a block assignment; its round-based :meth:`refine`
is the naive reference implementation (recompute every state's signature,
re-group everything).  Production minimisation runs on the splitter-worklist
engine of :mod:`repro.lumping.refinement` instead, which produces the same
partition (verified against this reference in ``tests/test_lumping.py``) in
near-linear rather than quadratic time.  That engine starts from the
``int64`` initial codes of :func:`label_codes` instead of per-state keys.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import numpy as np

from ..ioimc import IOIMC


class Partition:
    """A partition of the states ``0 .. n-1`` into numbered blocks."""

    def __init__(self, block_of: Sequence[int]):
        self.block_of: list[int] = list(block_of)
        self.num_blocks = (max(self.block_of) + 1) if self.block_of else 0

    @staticmethod
    def from_keys(keys: Sequence[Hashable]) -> "Partition":
        """Create a partition whose blocks group states with equal keys."""
        block_index: dict[Hashable, int] = {}
        block_of = []
        for key in keys:
            block = block_index.setdefault(key, len(block_index))
            block_of.append(block)
        return Partition(block_of)

    def refine(self, key_of_state: Callable[[int], Hashable]) -> bool:
        """Split every block by the given key function.

        Returns ``True`` when the partition changed.  States remain grouped
        with the states of their previous block that share the same key, so
        refinement is monotone.
        """
        block_index: dict[tuple[int, Hashable], int] = {}
        new_block_of = []
        for state, old_block in enumerate(self.block_of):
            key = (old_block, key_of_state(state))
            new_block_of.append(block_index.setdefault(key, len(block_index)))
        changed = len(block_index) != self.num_blocks
        self.block_of = new_block_of
        self.num_blocks = len(block_index)
        return changed

    def blocks(self) -> list[list[int]]:
        """Return the blocks as lists of states."""
        result: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for state, block in enumerate(self.block_of):
            result[block].append(state)
        return result

    def __len__(self) -> int:
        return self.num_blocks


def label_codes(automaton: IOIMC, *, respect_labels: bool = True) -> np.ndarray:
    """One ``int64`` code per state of ``automaton``, equal iff the states
    carry equal atomic propositions (all zero when ``respect_labels`` is off).

    The array form of the keys ``automaton.label_of(state)`` that
    :meth:`Partition.from_keys` groups by, built from the labelled states
    alone: unlabelled states, usually the vast majority, keep code ``0``.
    """
    codes = np.zeros(automaton.num_states, dtype=np.int64)
    labels = automaton.labels
    if respect_labels and labels:
        interned: dict[frozenset[str], int] = {}
        codes[np.fromiter(labels, dtype=np.int64, count=len(labels))] = np.fromiter(
            (interned.setdefault(props, len(interned) + 1) for props in labels.values()),
            dtype=np.int64,
            count=len(labels),
        )
    return codes


__all__ = ["Partition", "label_codes"]
