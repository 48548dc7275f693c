"""Named counters, gauges and histograms with snapshot/merge semantics.

The registry is the numeric half of the telemetry stream: where spans
(:mod:`repro.telemetry.trace`) answer *where the wall-clock went*, metrics
answer *how much work happened* — cache hits and misses, saved seconds,
peak intermediate states, refinement rounds, simulation events, sweep
points.

Three instrument kinds cover every series the pipeline records:

``Counter``
    Monotonically increasing total (``cache.hits``, ``simulate.events``).
``Gauge``
    High-water mark (``compose.peak_states``, ``restart.peak_population``).
    ``set`` records the latest value, ``update_max`` ratchets.
``Histogram``
    Streaming ``count/sum/min/max`` summary (``simulate.events_per_second``,
    ``sweep.point_seconds``) without storing samples.

Snapshots are plain JSON-serialisable dicts; the telemetry session emits
one as the ``metrics`` event when it closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A high-water mark."""

    name: str
    value: float = 0.0
    #: Whether the gauge was ever written: an untouched gauge is left out
    #: of the snapshot, and the first ``update_max`` takes its value
    #: whatever its sign.
    touched: bool = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.touched = True

    def update_max(self, value: float) -> None:
        value = float(value)
        if not self.touched or value > self.value:
            self.value = value
        self.touched = True


@dataclass
class Histogram:
    """A streaming ``count/sum/min/max`` summary of observed samples."""

    name: str
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
        }


@dataclass
class MetricsRegistry:
    """A namespace of lazily created instruments.

    One registry lives on each :class:`~repro.telemetry.trace.Telemetry`
    session; instruments are created on first use so instrumentation sites
    never need registration boilerplate.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict:
        """JSON-serialisable state of every instrument (empty dict if none)."""
        state: dict = {}
        if self.counters:
            state["counters"] = {
                name: counter.value for name, counter in sorted(self.counters.items())
            }
        if self.gauges:
            state["gauges"] = {
                name: gauge.value
                for name, gauge in sorted(self.gauges.items())
                if gauge.touched
            }
        if self.histograms:
            state["histograms"] = {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            }
        return state


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
