"""Deterministic fault injection for the evaluation pipeline.

The pipeline has a small number of *injection sites* — fixed places in the
code that ask the ambient :class:`FaultPlan` (if any) whether a fault should
fire here, now.  With no plan active every consultation is a contextvar read
plus a ``None`` check, so production runs pay nothing.

Faults are identified by ``(site, key)``:

``site``
    One of :data:`INJECTION_SITES` — the fault class.
``key``
    The concrete unit the site is handling: a cache entry key, a
    composition step description, a sweep point index (``"point:17"``).

A plan lists explicit :class:`FaultSpec` entries, matched exactly, so every
fault it fires is deterministic by construction and replays exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from ..errors import ResilienceError

#: The pipeline's injection sites and the behaviour a firing triggers.
INJECTION_SITES = (
    # The on-disk cache writer flips one byte of the entry's payload after
    # checksumming it, so verify-on-load quarantines exactly this entry.
    "cache.corrupt_entry",
    # The composer treats this step's product as exceeding any state budget
    # (inflates the observed size by the spec's factor).
    "compose.blowup",
    # The sweep driver raises KeyboardInterrupt before evaluating this
    # point — the reproducible stand-in for a user or scheduler kill.
    "sweep.interrupt",
)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where it fires and what it carries.

    ``key=None`` matches every key at the site.
    """

    site: str
    key: str | None = None
    #: ``compose.blowup``: factor the observed product size is inflated by.
    factor: float = float("inf")

    def __post_init__(self) -> None:
        if self.site not in INJECTION_SITES:
            raise ResilienceError(
                f"unknown injection site {self.site!r} "
                f"(expected one of {INJECTION_SITES})"
            )

    def matches(self, key: str | None) -> bool:
        return self.key is None or self.key == key


@dataclass
class FaultPlan:
    """A replayable set of declarative faults.

    The plan records every fault it fired in :attr:`fired`, so a test can
    assert exactly which consultations fired.
    """

    specs: tuple[FaultSpec, ...] = ()
    #: ``(site, key)`` of every fault this plan instance fired.
    fired: list = field(default_factory=list, compare=False)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)

    def spec_for(self, site: str, key: str | None) -> FaultSpec | None:
        """The fault to fire at this consultation, or None.

        The first matching spec applies.
        """
        for spec in self.specs:
            if spec.site == site and spec.matches(key):
                self.fired.append((site, key))
                return spec
        return None


#: The ambient fault plan of this context (None = no injection, zero cost).
_ACTIVE_PLAN: ContextVar[FaultPlan | None] = ContextVar(
    "repro_fault_plan", default=None
)


@contextmanager
def inject_faults(plan: FaultPlan | None):
    """Activate a fault plan for the dynamic extent of the block.

    ``None`` is accepted and is a no-op, so call sites can pass an optional
    plan through unconditionally.
    """
    if plan is None:
        yield None
        return
    token = _ACTIVE_PLAN.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLAN.reset(token)


def active_fault(site: str, key: str | None = None) -> FaultSpec | None:
    """Consult the ambient plan at an injection site (free no-op without one)."""
    plan = _ACTIVE_PLAN.get()
    if plan is None:
        return None
    return plan.spec_for(site, key)


__all__ = [
    "FaultPlan",
    "FaultSpec",
    "INJECTION_SITES",
    "active_fault",
    "inject_faults",
]
