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

Two firing modes compose:

* **Declarative** — explicit :class:`FaultSpec` entries matched exactly.
  Fully deterministic by construction; the chaos acceptance tests use this.
* **Seeded random** — ``FaultPlan(seed=..., rate=p, sites=(...))`` fires
  each consultation with probability ``p`` decided by a SHA-256 hash of
  ``(seed, site, key)``.  Deterministic across runs and processes for the
  same seed, so a sampled fault still replays exactly.
"""

from __future__ import annotations

import hashlib
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
    """A replayable set of faults: declarative specs plus a seeded rate.

    The plan records every fault it fired in :attr:`fired`, so a test can
    assert exactly which consultations fired.
    """

    specs: tuple[FaultSpec, ...] = ()
    #: Seed of the probabilistic mode (None disables it).
    seed: int | None = None
    #: Per-consultation firing probability of the probabilistic mode.
    rate: float = 0.0
    #: Sites the probabilistic mode may fire at (None = all sites).
    sites: tuple[str, ...] | None = None
    #: ``(site, key)`` of every fault this plan instance fired.
    fired: list = field(default_factory=list, compare=False)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        if not 0.0 <= self.rate <= 1.0:
            raise ResilienceError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.rate > 0.0 and self.seed is None:
            raise ResilienceError("a probabilistic fault plan needs a seed")
        if self.sites is not None:
            unknown = set(self.sites) - set(INJECTION_SITES)
            if unknown:
                raise ResilienceError(
                    f"unknown injection site(s) {sorted(unknown)} "
                    f"(expected among {INJECTION_SITES})"
                )

    def spec_for(self, site: str, key: str | None) -> FaultSpec | None:
        """The fault to fire at this consultation, or None.

        Declarative specs win over the probabilistic mode (so a test can pin
        one exact fault on top of background noise); the first matching spec
        applies.
        """
        for spec in self.specs:
            if spec.site == site and spec.matches(key):
                self.fired.append((site, key))
                return spec
        if (
            self.rate > 0.0
            and (self.sites is None or site in self.sites)
            and _seeded_draw(self.seed, site, key) < self.rate
        ):
            spec = FaultSpec(site=site, key=key)
            self.fired.append((site, key))
            return spec
        return None


def _seeded_draw(seed: int | None, site: str, key: str | None) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments.

    SHA-256 rather than ``hash()``: Python's string hashing is salted per
    process, and a fault that fires in one run but not in its replay is
    worthless for differential testing.
    """
    message = f"{seed}|{site}|{key}".encode()
    digest = hashlib.sha256(message).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


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
