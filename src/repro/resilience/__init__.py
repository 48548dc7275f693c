"""Resilient execution layer: crash-safe persistence.

The paper is about evaluating systems that survive component failures — and
this package makes the *pipeline itself* survive the faults a long serial
run meets:

* :mod:`repro.resilience.diskcache` — a checksummed, pickle-free on-disk
  persistence format for :class:`~repro.composer.QuotientCache` (atomic
  write, verify-on-load, quarantine-don't-crash on corrupt entries).
* :mod:`repro.resilience.checkpoint` — crash-safe checkpoint/resume for
  :func:`repro.sweep.run_sweep`: atomic-rename partial stores plus the
  persisted shared cache, so an interrupted sweep resumes exactly where it
  stopped and reproduces an uninterrupted run bit for bit.

The per-step ``state_budget`` of :class:`~repro.composer.Composer` and the
sweep's ``isolate_failures`` turn a runaway point into an error instead of
an exhausted machine.  See ``docs/robustness.md`` for the failure modes
handled and the recovery guarantees.
"""

from .diskcache import CACHE_STORE_VERSION, CacheLoadReport, load_cache, save_cache
from .checkpoint import SweepCheckpoint

__all__ = [
    "CACHE_STORE_VERSION",
    "CacheLoadReport",
    "SweepCheckpoint",
    "load_cache",
    "save_cache",
]
