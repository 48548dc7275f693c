"""Shared observability plumbing for the command-line entry points.

Every CLI in the repository (case studies, sweeps) grows the
same three options through :func:`add_observability_arguments`::

    --telemetry PATH   write a JSONL telemetry run (spans, metrics, manifest)
    --verbose / -v     progress at DEBUG level
    --quiet / -q       warnings and errors only

and funnels its progress output through a module logger obtained from
:func:`get_logger` instead of bare ``print`` calls —
:func:`configure_logging` installs a plain ``%(message)s`` stdout handler so
default output looks exactly like the previous prints while ``--quiet``
silences it and ``--verbose`` adds detail.

:func:`telemetry_from_args` turns the parsed namespace into an activated
:class:`~repro.telemetry.trace.Telemetry` session (or None when
``--telemetry`` was not given), capturing a
:class:`~repro.telemetry.sink.RunManifest` from the CLI arguments and
seeds.  Use it as a context manager::

    with telemetry_session("dds", args, seeds={"sim_seed": args.sim_seed}):
        ...   # everything inside is traced into args.telemetry
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from contextlib import contextmanager

from .sink import JsonlSink, RunManifest
from .trace import Telemetry

#: Root of every CLI logger, so one handler covers all entry points.
_LOGGER_ROOT = "repro.cli"


def add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``--telemetry`` / ``--verbose`` / ``--quiet`` to a parser."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write a telemetry JSONL run (inspect with 'python -m repro.telemetry report')",
    )
    verbosity = group.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="emit per-step progress detail",
    )
    verbosity.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only emit warnings and errors",
    )


def configure_logging(args: argparse.Namespace | None = None) -> logging.Logger:
    """Install the plain stdout handler and set the level from the flags.

    Idempotent — repeated CLI invocations in one process (tests) reuse the
    handler instead of stacking duplicates.
    """
    logger = logging.getLogger(_LOGGER_ROOT)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stdout)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
    if args is not None and getattr(args, "quiet", False):
        logger.setLevel(logging.WARNING)
    elif args is not None and getattr(args, "verbose", False):
        logger.setLevel(logging.DEBUG)
    else:
        logger.setLevel(logging.INFO)
    return logger


def get_logger(name: str) -> logging.Logger:
    """A child of the shared CLI logger (``repro.cli.<name>``)."""
    return logging.getLogger(f"{_LOGGER_ROOT}.{name}")


def telemetry_from_args(
    tool: str,
    args: argparse.Namespace,
    *,
    seeds: dict | None = None,
) -> Telemetry | None:
    """Build a JSONL-backed session from ``--telemetry`` (None when unset)."""
    path = getattr(args, "telemetry", None)
    if not path:
        return None
    manifest = RunManifest.capture(tool, args=vars(args), seeds=seeds)
    return Telemetry(JsonlSink(path), manifest=manifest)


@contextmanager
def _graceful_sigterm():
    """Turn SIGTERM into ``SystemExit`` for the duration of the scope.

    The default SIGTERM disposition kills the process without unwinding the
    stack, so ``finally`` blocks never run: telemetry sinks are left with
    truncated JSONL lines.  Raising ``SystemExit`` instead routes the
    shutdown through the ordinary exception machinery — the sweep writes
    its checkpoint and the session's ``close()`` flushes the sink.  Only
    the main thread may set signal handlers; anywhere else (tests driving
    the CLI from another thread) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _exit(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextmanager
def telemetry_session(
    tool: str,
    args: argparse.Namespace,
    *,
    seeds: dict | None = None,
):
    """Activated telemetry scope for a whole CLI run (no-op when unset).

    The scope also converts SIGTERM into a normal ``SystemExit`` unwind so
    an externally killed run still flushes its telemetry sink and writes
    its checkpoint (see :func:`_graceful_sigterm`) — that part applies
    with or without ``--telemetry``.
    """
    telemetry = telemetry_from_args(tool, args, seeds=seeds)
    with _graceful_sigterm():
        if telemetry is None:
            yield None
            return
        try:
            with telemetry.activate():
                yield telemetry
        finally:
            telemetry.close()


__all__ = [
    "add_observability_arguments",
    "configure_logging",
    "get_logger",
    "telemetry_from_args",
    "telemetry_session",
]
