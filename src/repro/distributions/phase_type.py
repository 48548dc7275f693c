"""Phase-type distributions for time-to-failure and time-to-repair.

The Arcade syntax (Section 3.5 of the paper) allows "in general, any
phase-type distribution" for the ``TIME-TO-FAILURES`` and ``TIME-TO-REPAIRS``
lines; the reactor-cooling-system case study uses Erlang-2 distributions for
the pumps.  A (continuous) phase-type distribution is the distribution of the
time to absorption of a small CTMC; embedding one into a basic component or
repair unit simply means inlining that small CTMC into the component's
I/O-IMC.

This module provides the canonical acyclic representations used by the
translation — :class:`Exponential`, :class:`Erlang`, :class:`HyperExponential`
and the general :class:`PhaseType` — together with the numerics needed by the
tests and the simulator (mean, variance, cdf, sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from ..errors import ModelError
from ..nputil import unique_sorted


@dataclass(frozen=True)
class PhaseType:
    """A continuous phase-type distribution.

    Parameters
    ----------
    initial:
        Probability of starting in each phase (must sum to one).
    transitions:
        ``(source_phase, rate, target_phase)`` triples describing movement
        between transient phases.
    completions:
        ``(phase, rate)`` pairs describing absorption (i.e. the event — a
        failure or the end of a repair — actually happening).
    name:
        Optional human readable description used when serialising models.
    """

    initial: tuple[float, ...]
    transitions: tuple[tuple[int, float, int], ...]
    completions: tuple[tuple[int, float], ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.initial:
            raise ModelError("a phase-type distribution needs at least one phase")
        for probability in self.initial:
            if not 0.0 <= probability <= 1.0:  # NaN fails every comparison
                raise ModelError(
                    f"initial phase probability must lie in [0, 1], got {probability!r}"
                )
        if abs(sum(self.initial) - 1.0) > 1e-9:
            raise ModelError("initial phase probabilities must sum to one")
        phases = self.num_phases
        for source, rate, target in self.transitions:
            if not (0 <= source < phases and 0 <= target < phases):
                raise ModelError("phase transition endpoint out of range")
            _check_rate(rate, "phase transition rate")
            if source == target:
                raise ModelError("phase self-loops are not allowed")
        for phase, rate in self.completions:
            if not 0 <= phase < phases:
                raise ModelError("completion phase out of range")
            _check_rate(rate, "completion rate")
        if not self.completions:
            raise ModelError("a phase-type distribution must be able to complete")

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def num_phases(self) -> int:
        """Number of transient phases."""
        return len(self.initial)

    def scaled(self, factor: float) -> "PhaseType":
        """Distribution with every rate multiplied by ``factor`` (time scaled by 1/factor)."""
        _check_rate(factor, "scaling factor")
        return PhaseType(
            self.initial,
            tuple((s, r * factor, t) for s, r, t in self.transitions),
            tuple((p, r * factor) for p, r in self.completions),
            name=f"scaled({factor:g}, {self.describe()})",
        )

    def subgenerator(self) -> np.ndarray:
        """The sub-generator matrix ``S`` over the transient phases."""
        matrix = np.zeros((self.num_phases, self.num_phases))
        for source, rate, target in self.transitions:
            matrix[source, target] += rate
            matrix[source, source] -= rate
        for phase, rate in self.completions:
            matrix[phase, phase] -= rate
        return matrix

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    def mean(self) -> float:
        """Expected value ``-alpha S^{-1} 1``."""
        alpha = np.asarray(self.initial)
        moments = np.linalg.solve(self.subgenerator().T, -alpha)
        return float(moments.sum())

    def variance(self) -> float:
        """Variance computed from the first two moments."""
        alpha = np.asarray(self.initial)
        inverse = np.linalg.inv(self.subgenerator())
        first = float(-alpha @ inverse @ np.ones(self.num_phases))
        second = float(2.0 * alpha @ inverse @ inverse @ np.ones(self.num_phases))
        return second - first * first

    def cdf(self, time: float) -> float:
        """Probability that the event has happened by ``time``."""
        if time <= 0:
            return 0.0
        alpha = np.asarray(self.initial)
        survivor = alpha @ linalg.expm(self.subgenerator() * time) @ np.ones(self.num_phases)
        return float(1.0 - survivor)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value (used by the Monte-Carlo simulator)."""
        phase = int(rng.choice(self.num_phases, p=np.asarray(self.initial)))
        elapsed = 0.0
        while True:
            outgoing: list[tuple[float, int | None]] = []
            for source, rate, target in self.transitions:
                if source == phase:
                    outgoing.append((rate, target))
            for completion_phase, rate in self.completions:
                if completion_phase == phase:
                    outgoing.append((rate, None))
            total = sum(rate for rate, _ in outgoing)
            elapsed += float(rng.exponential(1.0 / total))
            choice = rng.uniform(0.0, total)
            cumulative = 0.0
            for rate, target in outgoing:
                cumulative += rate
                if choice <= cumulative:
                    if target is None:
                        return elapsed
                    phase = target
                    break

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` values with batched per-phase arrays.

        The absorbing CTMC is executed in lockstep for all samples: every
        round draws one exponential array and one uniform array per distinct
        current phase (so an Erlang-``k`` costs ``k`` batched draws for the
        whole batch instead of ``2k`` scalar draws per sample).  Used by the
        vectorised simulation engine's batched draw mode; the scalar
        :meth:`sample` remains the draw-for-draw reference.
        """
        if size < 0:
            raise ModelError(f"sample_batch needs a non-negative size, got {size}")
        elapsed = np.zeros(size)
        if size == 0:
            return elapsed
        initial_cum = np.cumsum(np.asarray(self.initial))
        phase = np.searchsorted(initial_cum, rng.random(size), side="right").astype(
            np.int64
        )
        np.clip(phase, 0, self.num_phases - 1, out=phase)
        totals, cums, targets = self._phase_tables()
        alive = np.arange(size)
        while alive.size:
            for current in unique_sorted(phase[alive]):
                rows = alive[phase[alive] == current]
                total = totals[current]
                if total <= 0:  # pragma: no cover - dead phase, mirrors sample()
                    raise ModelError(
                        f"phase {current} of {self.describe()} has no outgoing rate"
                    )
                elapsed[rows] += rng.exponential(1.0 / total, rows.size)
                choice = rng.uniform(0.0, total, rows.size)
                index = np.minimum(
                    np.searchsorted(cums[current], choice, side="left"),
                    len(cums[current]) - 1,
                )
                phase[rows] = targets[current][index]
            alive = alive[phase[alive] >= 0]
        return elapsed

    def _phase_tables(self):
        """Per-phase outgoing tables: (total rate, cumulative rates, targets).

        Targets use ``-1`` for absorption.  Rates are accumulated in the
        declaration order of :attr:`transitions` then :attr:`completions`,
        matching the scalar :meth:`sample` loop.
        """
        cached = getattr(self, "_tables_cache", None)
        if cached is not None:
            return cached
        totals = np.zeros(self.num_phases)
        cums: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for phase in range(self.num_phases):
            rates = [r for s, r, _ in self.transitions if s == phase] + [
                r for p, r in self.completions if p == phase
            ]
            outgoing = [t for s, _, t in self.transitions if s == phase] + [
                -1 for p, _ in self.completions if p == phase
            ]
            totals[phase] = sum(rates)
            cums.append(np.cumsum(np.asarray(rates)) if rates else np.zeros(0))
            targets.append(np.asarray(outgoing, dtype=np.int64))
        tables = (totals, cums, targets)
        object.__setattr__(self, "_tables_cache", tables)
        return tables

    def describe(self) -> str:
        """Short human readable description."""
        return self.name or f"ph({self.num_phases} phases)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def Exponential(rate: float) -> PhaseType:
    """Exponential distribution with the given ``rate`` (a 1-phase PH)."""
    _check_rate(rate, "exponential rate")
    return PhaseType((1.0,), (), ((0, rate),), name=f"exp({rate:g})")


def Erlang(stages: int, rate: float) -> PhaseType:
    """Erlang distribution: ``stages`` exponential phases of the given ``rate``."""
    if stages < 1:
        raise ModelError("an Erlang distribution needs at least one stage")
    _check_rate(rate, "Erlang rate")
    initial = tuple(1.0 if phase == 0 else 0.0 for phase in range(stages))
    transitions = tuple((phase, rate, phase + 1) for phase in range(stages - 1))
    completions = ((stages - 1, rate),)
    return PhaseType(initial, transitions, completions, name=f"erlang({stages}, {rate:g})")


def HyperExponential(probabilities: Sequence[float], rates: Sequence[float]) -> PhaseType:
    """Mixture of exponentials: with probability ``p_i`` the rate is ``rates[i]``."""
    if len(probabilities) != len(rates) or not probabilities:
        raise ModelError("need matching, non-empty probability and rate lists")
    if abs(sum(probabilities) - 1.0) > 1e-9:
        raise ModelError("hyper-exponential branch probabilities must sum to one")
    completions = tuple((index, rate) for index, rate in enumerate(rates))
    return PhaseType(
        tuple(float(p) for p in probabilities),
        (),
        completions,
        name=f"hyperexp({list(probabilities)}, {list(rates)})",
    )


def _check_rate(rate: float, what: str) -> None:
    """Reject a rate that is not a finite positive number (NaN included)."""
    if not (math.isfinite(rate) and rate > 0):
        raise ModelError(f"{what} must be finite and positive, got {rate!r}")


__all__ = ["PhaseType", "Exponential", "Erlang", "HyperExponential"]
