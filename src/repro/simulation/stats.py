"""Statistics for simulation output: confidence intervals and stopping rules.

The estimators of :mod:`repro.simulation` produce per-replication (or
per-root-trajectory, for RESTART) values that are independent and
identically distributed by construction.  This module turns such samples
into

* **batch-means confidence intervals** — the replications are grouped into
  batches, and a Student-t interval is computed over the batch means.  For
  independent replications this coincides asymptotically with the plain
  sample-mean interval but is far better behaved for the heavily skewed
  samples rare-event estimation produces (most replications contribute 0);
* a **relative-error stopping rule** — keep adding batches of replications
  until the relative half-width of the interval drops below a target (or a
  replication budget is exhausted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided Student-t confidence interval for a mean."""

    mean: float
    half_width: float
    confidence: float
    samples: int
    batches: int

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the mean (``inf`` for a zero mean)."""
        if self.mean == 0.0:
            return math.inf
        return self.half_width / abs(self.mean)

    def describe(self) -> str:
        """``mean ± half_width (confidence)`` for log lines and CLIs."""
        return (
            f"{self.mean:.6e} ± {self.half_width:.2e} "
            f"({self.confidence:.0%}, n={self.samples})"
        )


def batch_means(
    samples: Sequence[float] | np.ndarray,
    *,
    batches: int = 32,
    confidence: float = 0.99,
) -> ConfidenceInterval:
    """Batch-means confidence interval over iid per-replication values.

    The ``samples`` are split into ``batches`` contiguous groups of equal
    size (a remainder shorter than a batch is folded into the last one), and
    a Student-t interval with ``batches - 1`` degrees of freedom is computed
    over the batch means.  At least two batches are required; when there are
    fewer samples than requested batches, every sample becomes its own
    batch.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("batch_means needs a one-dimensional sample of size >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    batches = max(2, min(int(batches), values.size))
    per_batch = values.size // batches
    # Fold the remainder into the final batch so every value is used.
    means = np.empty(batches)
    for index in range(batches):
        start = index * per_batch
        stop = values.size if index == batches - 1 else start + per_batch
        means[index] = values[start:stop].mean()
    mean = float(values.mean())
    spread = float(means.std(ddof=1))
    critical = float(special.stdtrit(batches - 1, 0.5 + confidence / 2.0))
    half_width = critical * spread / math.sqrt(batches)
    return ConfidenceInterval(
        mean=mean,
        half_width=half_width,
        confidence=confidence,
        samples=int(values.size),
        batches=batches,
    )


@dataclass(frozen=True)
class StoppingReport:
    """Outcome of a relative-error-controlled estimation run."""

    interval: ConfidenceInterval
    target_relative_error: float
    achieved: bool
    rounds: int
    replications: int
    #: Why the run stopped: ``"relative-error target reached"``,
    #: ``"replication budget exhausted"`` or a degenerate-mean message.
    reason: str = ""


def run_until_relative_error(
    draw_batch: Callable[[int], np.ndarray],
    *,
    rel_error: float,
    confidence: float = 0.99,
    batch_size: int = 512,
    max_replications: int = 1 << 20,
    batches: int = 32,
    abs_error: float = 0.0,
) -> StoppingReport:
    """Sequential stopping rule: sample batches until the CI is tight enough.

    ``draw_batch(n)`` must return ``n`` fresh iid per-replication values
    (each call continues the underlying random stream).  After every round
    the batch-means interval over *all* values so far is computed; the run
    stops when its relative half-width is at most ``rel_error``, or when
    ``max_replications`` values have been drawn (``achieved=False``).

    A ~0 estimate mean — e.g. a short-horizon unreliability where no
    replication has failed yet — makes the *relative* half-width undefined
    (``inf`` for an exactly zero mean) or uselessly large (for a noisy
    near-zero mean), and further batches cannot fix that, so the rule would
    otherwise burn the whole replication budget.  The **absolute** half-width
    tolerance ``abs_error`` is the fallback: once ``half_width <= abs_error``
    the run stops early with ``achieved=False`` and a ``reason`` naming the
    degeneracy.  The default ``abs_error=0.0`` still catches the all-zeros
    case (spread 0 gives half-width 0) on the very first round.

    The rule always terminates: each round adds ``batch_size`` replications
    and the replication budget is finite.
    """
    if rel_error <= 0:
        raise ValueError(f"rel_error must be positive, got {rel_error}")
    if batch_size < 2:
        raise ValueError("batch_size must be at least 2")
    if abs_error < 0:
        raise ValueError(f"abs_error must be non-negative, got {abs_error}")
    collected: list[np.ndarray] = []
    total = 0
    rounds = 0
    interval: ConfidenceInterval | None = None
    while total < max_replications:
        request = min(batch_size, max_replications - total)
        values = np.asarray(draw_batch(request), dtype=np.float64)
        collected.append(values)
        total += values.size
        rounds += 1
        interval = batch_means(
            np.concatenate(collected), batches=batches, confidence=confidence
        )
        relative = interval.relative_half_width
        if math.isfinite(relative) and relative <= rel_error:
            return StoppingReport(
                interval=interval,
                target_relative_error=rel_error,
                achieved=True,
                rounds=rounds,
                replications=total,
                reason="relative-error target reached",
            )
        if interval.half_width <= abs_error:
            degeneracy = (
                "relative half-width is undefined"
                if not math.isfinite(relative)
                else f"relative half-width {relative:.3e} cannot reach the target"
            )
            return StoppingReport(
                interval=interval,
                target_relative_error=rel_error,
                achieved=False,
                rounds=rounds,
                replications=total,
                reason=(
                    f"degenerate mean (estimate ~0): {degeneracy}; stopped at "
                    f"absolute half-width {interval.half_width:.3e} <= "
                    f"{abs_error:.3e}"
                ),
            )
    assert interval is not None
    return StoppingReport(
        interval=interval,
        target_relative_error=rel_error,
        achieved=False,
        rounds=rounds,
        replications=total,
        reason="replication budget exhausted",
    )


__all__ = [
    "ConfidenceInterval",
    "StoppingReport",
    "batch_means",
    "run_until_relative_error",
]
