"""Composition-order planning: one walk of the fault tree.

In the paper the composition order is "given by the user" (Section 4), and
choosing it well is exactly what makes compositional aggregation beat the
flat state space.  This package automates the choice for users who cannot
hand-craft a hierarchical decomposition: :func:`plan_order` groups the
blocks that share signals (:func:`affinity_groups`) and places the groups
along a depth-first walk of the fault tree, so every subtree is composed
and reduced on its own before it joins its parent (see
:mod:`repro.planner.planner`).  It is wired into the stack as
``Composer(order="auto")`` / ``compose_model(order="auto")`` and the
``--order auto`` flag of the case-study CLIs.

A plan reads the translated model and nothing else — in particular not the
composer's quotient cache — so ``order="auto"`` composes one order per
model, with the cache on or off.
"""

from .planner import affinity_groups, plan_order

__all__ = ["affinity_groups", "plan_order"]
