"""Exception hierarchy for the Arcade reproduction library.

All library-specific errors derive from :class:`ArcadeError` so that callers
can catch any library failure with a single ``except`` clause while still
being able to distinguish the individual failure classes.
"""

from __future__ import annotations


class ArcadeError(Exception):
    """Base class of every exception raised by this library."""


class ModelError(ArcadeError):
    """An Arcade model (or one of its building blocks) is ill-formed."""


class SignatureError(ArcadeError):
    """Two I/O-IMCs have incompatible action signatures.

    Raised, for instance, when two I/O-IMCs that are being composed both
    declare the same action as an output (outputs must be under the control
    of exactly one component).
    """


class InputEnablednessError(ArcadeError):
    """An I/O-IMC is not input-enabled in some state."""


class NondeterminismError(ArcadeError):
    """Internal nondeterminism could not be resolved confluently.

    The conversion of a closed I/O-IMC into a CTMC requires that all internal
    (tau) transitions are confluent, i.e. every maximal tau-path from a state
    leads to the same tangible state.  Arcade models are confluent by
    construction; this error signals a modelling mistake (or an unsupported
    construct) rather than a numerical problem.
    """


class LumpingError(ArcadeError):
    """Bisimulation minimisation could not attribute behaviour unambiguously.

    Raised by the weak-bisimulation engine when the tau-successors of a
    Markovian target land in several equivalence classes through genuinely
    nondeterministic internal branching, so the Markovian rate cannot be
    attributed to a single class.  Models produced by the Arcade translation
    are tau-confluent and never trigger this; hand-written I/O-IMCs can.
    """


class CompositionError(ArcadeError):
    """Parallel composition failed (incompatible models or bad ordering)."""


class SweepError(ArcadeError):
    """A parameter sweep is ill-specified (bad axes, priors or conditioning)."""


class ResilienceError(ArcadeError):
    """The resilience layer itself was misused (e.g. a bad fault plan)."""


class StateBudgetError(CompositionError):
    """An intermediate state space exceeded the configured budget.

    Raised by :class:`repro.composer.Composer` when ``state_budget`` is set
    and a composition step's pre-reduction product exceeds it.  Deliberately
    a :class:`CompositionError` subclass: callers that already guard
    composition failures contain budget blowups for free, and the sweep
    driver's per-point isolation turns it into an error row instead of a
    dead sweep.
    """


class CacheStoreError(ArcadeError):
    """An on-disk quotient-cache file could not be used at all.

    Raised only for whole-file problems (unreadable archive, missing or
    unparsable index, unsupported format version).  *Per-entry* corruption
    never raises: checksum-failing entries are quarantined and reported, and
    the load continues with the surviving entries (see
    :mod:`repro.resilience.diskcache`).
    """


class AnalysisError(ArcadeError):
    """A numerical analysis step (steady state, transient, ...) failed."""


class TelemetryError(ArcadeError):
    """A telemetry stream could not be read (missing file, bad schema).

    Raised by the report loader of :mod:`repro.telemetry.report` — telemetry
    *writing* never raises into the pipeline; observability must not be able
    to fail an analysis.
    """


class SyntaxParseError(ArcadeError):
    """The textual Arcade syntax could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
