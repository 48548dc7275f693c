"""Composition-order policies shared by the case-study CLIs."""

from __future__ import annotations

#: Order policies of the case-study CLIs and evaluator builders: the
#: paper's hand-written hierarchical decomposition, the signal-closing
#: greedy heuristic (``Composer.default_order``) or the fault-tree walk of
#: :mod:`repro.planner`.
ORDER_CHOICES = ("hierarchical", "greedy", "auto")


def validate_order_choice(order: str) -> None:
    """Raise :class:`ValueError` unless ``order`` is a known policy name."""
    if order not in ORDER_CHOICES:
        raise ValueError(f"unknown order {order!r} (expected one of {ORDER_CHOICES})")


__all__ = ["ORDER_CHOICES", "validate_order_choice"]
