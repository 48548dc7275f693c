"""Resilient execution layer: fault injection and crash-safe persistence.

The paper is about evaluating systems that survive component failures — and
this package makes the *pipeline itself* survive the faults a long serial
run meets:

* :mod:`repro.resilience.faults` — a deterministic, seeded fault-injection
  harness.  Injection points (cache-entry corruption, state-space blowup,
  sweep interruption) are consulted at fixed sites in the pipeline and fire
  according to an explicit :class:`~repro.resilience.faults.FaultPlan`, so
  every chaos test replays bit-for-bit.
* :mod:`repro.resilience.diskcache` — a checksummed, pickle-free on-disk
  persistence format for :class:`~repro.composer.QuotientCache` (atomic
  write, verify-on-load, quarantine-don't-crash on corrupt entries).
* :mod:`repro.resilience.checkpoint` — crash-safe checkpoint/resume for
  :func:`repro.sweep.run_sweep`: atomic-rename partial stores plus the
  persisted shared cache, so an interrupted sweep resumes exactly where it
  stopped and reproduces an uninterrupted run bit for bit.

The per-step ``state_budget`` of :class:`~repro.composer.Composer` and the
sweep's ``isolate_failures`` turn a runaway point into an error instead of
an exhausted machine.  See ``docs/robustness.md`` for the fault model and
the recovery guarantees.
"""

from .faults import (
    INJECTION_SITES,
    FaultPlan,
    FaultSpec,
    active_fault,
    inject_faults,
)
from .diskcache import CACHE_STORE_VERSION, CacheLoadReport, load_cache, save_cache
from .checkpoint import SweepCheckpoint

__all__ = [
    "CACHE_STORE_VERSION",
    "CacheLoadReport",
    "FaultPlan",
    "FaultSpec",
    "INJECTION_SITES",
    "SweepCheckpoint",
    "active_fault",
    "inject_faults",
    "load_cache",
    "save_cache",
]
