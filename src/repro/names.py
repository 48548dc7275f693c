"""State names as lazy provenance.

An automaton or chain carries its state names as one immutable *name
source*, not as one Python string per state.  The sources form a small
provenance tree whose strings are built only on request:

* :class:`ListNames` — an explicit list (building blocks, builders, entries
  loaded from disk);
* :class:`ProductNames` — ``(left, right, left_index, right_index)``: state
  ``s`` of a product is named ``f"{left name}|{right name}"`` after the
  operand states ``left_index[s]`` and ``right_index[s]`` it pairs;
* :class:`SelectedNames` — ``(parent, index)``: state ``s`` takes the name
  of parent state ``index[s]``, or ``f"s{s}"`` where ``index[s]`` is ``-1``.

A source of ``None`` stands for an unnamed model, whose state ``i`` reads
``f"s{i}"``.  :func:`select` folds a selection of a product into a product
over the picked pairs, so each composition level keeps one index pair sized
by the states that survive it.
"""

from __future__ import annotations

import numpy as np


class NameSource:
    """The names of ``len(self)`` states, resolved on request."""

    __slots__ = ()

    def names(self) -> list[str]:
        """Every state's name, in state order (built afresh on each call)."""
        return self.names_at(np.arange(len(self)))


class ListNames(NameSource):
    """An explicit list of names."""

    __slots__ = ("_names",)

    def __init__(self, names: list[str]) -> None:
        self._names = names

    def __len__(self) -> int:
        return len(self._names)

    def name(self, state: int) -> str:
        return self._names[state]

    def names(self) -> list[str]:
        return self._names

    def names_at(self, states: np.ndarray) -> list[str]:
        return list(map(self._names.__getitem__, states.tolist()))


class ProductNames(NameSource):
    """``"left|right"`` names of product states, by operand-state pairs."""

    __slots__ = ("left", "right", "left_index", "right_index")

    def __init__(self, left, right, left_index: np.ndarray, right_index: np.ndarray):
        self.left = left
        self.right = right
        self.left_index = left_index
        self.right_index = right_index

    def __len__(self) -> int:
        return len(self.left_index)

    def name(self, state: int) -> str:
        return (
            f"{name_of(self.left, int(self.left_index[state]))}|"
            f"{name_of(self.right, int(self.right_index[state]))}"
        )

    def names_at(self, states: np.ndarray) -> list[str]:
        lefts = names_at(self.left, self.left_index[states])
        rights = names_at(self.right, self.right_index[states])
        return [f"{left}|{right}" for left, right in zip(lefts, rights)]


class SelectedNames(NameSource):
    """Names picked from a parent source; ``-1`` means ``f"s{state}"``."""

    __slots__ = ("parent", "index", "gapless")

    def __init__(self, parent, index: np.ndarray) -> None:
        self.parent = parent
        self.index = index
        self.gapless = not len(index) or int(index.min()) >= 0

    def __len__(self) -> int:
        return len(self.index)

    def name(self, state: int) -> str:
        picked = int(self.index[state])
        return name_of(self.parent, picked) if picked >= 0 else f"s{state}"

    def names_at(self, states: np.ndarray) -> list[str]:
        picked = self.index[states]
        named = iter(names_at(self.parent, picked[picked >= 0]))
        return [
            next(named) if parent >= 0 else f"s{state}"
            for state, parent in zip(states.tolist(), picked.tolist())
        ]


def as_name_source(names) -> NameSource | None:
    """``names`` as a source: a source or ``None`` as is, a sequence copied."""
    if names is None or isinstance(names, NameSource):
        return names
    return ListNames(list(names))


def name_of(source: NameSource | None, state: int) -> str:
    """The name of one state of ``source``."""
    return f"s{state}" if source is None else source.name(state)


def names_at(source: NameSource | None, states: np.ndarray) -> list[str]:
    """The names of ``states`` (an index array) of ``source``."""
    if source is None:
        return [f"s{state}" for state in states.tolist()]
    return source.names_at(states)


def select(source: NameSource | None, index: np.ndarray) -> NameSource:
    """The names of the states ``index`` picks from ``source``.

    Entry ``k`` names new state ``k`` after state ``index[k]`` of ``source``,
    or ``f"s{k}"`` where it is ``-1``.  Without such gaps a selection of a
    product is the product of the picked pairs, and a selection of a
    gap-free selection picks from its parent directly.
    """
    index = np.asarray(index)
    if not len(index) or int(index.min()) >= 0:
        if isinstance(source, ProductNames):
            return ProductNames(
                source.left,
                source.right,
                source.left_index[index],
                source.right_index[index],
            )
        if isinstance(source, SelectedNames) and source.gapless:
            return SelectedNames(source.parent, source.index[index])
    return SelectedNames(source, index)


def rebind(source: NameSource | None, left, right) -> NameSource | None:
    """The names of a step result ``source``, over other operands' names.

    A product, and any selection of one, keeps its index arrays and reads
    its operand names from ``left`` and ``right`` instead: a cache hit
    names its states after the operands it joins, as a cold step does.
    Any other source (an explicit list) is returned as is.
    """
    if isinstance(source, ProductNames):
        return ProductNames(left, right, source.left_index, source.right_index)
    if isinstance(source, SelectedNames):
        return SelectedNames(rebind(source.parent, left, right), source.index)
    return source


__all__ = [
    "ListNames",
    "NameSource",
    "ProductNames",
    "SelectedNames",
    "as_name_source",
    "name_of",
    "names_at",
    "rebind",
    "select",
]
