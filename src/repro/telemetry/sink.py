"""Event sinks and the per-run manifest of the telemetry stream.

Every telemetry event is one flat JSON-serialisable dict with a ``type``
field; a run's stream is a sequence of such events:

``manifest``
    Exactly one, first: the :class:`RunManifest` — run id, schema version,
    tool name, command line, structured arguments, seeds, ``git describe``
    and interpreter/platform info.  The manifest is what makes a JSONL file
    self-describing: a consumer can reproduce the run from it.
``span``
    One closed tracing span (see :mod:`repro.telemetry.trace`): name,
    span/parent/trace ids, start timestamp, duration, attributes, pid.
``metrics``
    A :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`, emitted
    when the session closes (and whenever a caller asks for an intermediate
    flush).

Two sinks implement the ``emit``/``close`` protocol:

* :class:`JsonlSink` appends one JSON document per line to a file — the
  durable format the report CLI (:mod:`repro.telemetry.report`) and the
  future dashboard consume;
* :class:`MemorySink` buffers events in a list — used by tests and by
  callers that inspect a run's spans in process.

The schema is versioned (:data:`SCHEMA_VERSION`); consumers refuse files
from a future major version rather than misread them.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Version of the JSONL event schema.  Bump on breaking layout changes;
#: the report loader rejects events from a newer schema than it knows.
SCHEMA_VERSION = 1


class MemorySink:
    """In-memory event buffer (tests, in-process inspection)."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.closed = False

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class JsonlSink:
    """Append-one-JSON-document-per-line file sink.

    Events are flushed as they are emitted, so a crashed run still leaves a
    readable prefix of its stream on disk.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def git_describe() -> str | None:
    """Best-effort ``git describe`` of the working tree (None off a repo)."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


@dataclass(frozen=True)
class RunManifest:
    """Self-description of one telemetry run (the stream's first event)."""

    run_id: str
    tool: str
    created_unix: float
    argv: tuple[str, ...] = ()
    #: Structured arguments of the run (CLI namespace, sweep config, ...).
    args: dict = field(default_factory=dict)
    #: Every RNG root the run consumed, by name (``sim_seed``, ``root_seed``).
    seeds: dict = field(default_factory=dict)
    git: str | None = None
    python: str = ""
    platform_info: str = ""
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        tool: str,
        *,
        run_id: str | None = None,
        args: dict | None = None,
        seeds: dict | None = None,
    ) -> "RunManifest":
        """Snapshot the current process into a manifest."""
        if run_id is None:
            run_id = f"{tool}-{os.getpid():x}-{time.time_ns():x}"
        return cls(
            run_id=run_id,
            tool=tool,
            created_unix=time.time(),
            argv=tuple(sys.argv),
            args=dict(args or {}),
            seeds=dict(seeds or {}),
            git=git_describe(),
            python=platform.python_version(),
            platform_info=platform.platform(),
        )

    def to_event(self) -> dict:
        return {
            "type": "manifest",
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "tool": self.tool,
            "created_unix": self.created_unix,
            "argv": list(self.argv),
            "args": _jsonable(self.args),
            "seeds": _jsonable(self.seeds),
            "git": self.git,
            "python": self.python,
            "platform": self.platform_info,
        }


def _jsonable(value):
    """Coerce manifest payloads to JSON-serialisable structures.

    CLI namespaces carry paths, tuples and None-able options; anything the
    JSON encoder cannot take verbatim is stringified rather than dropped.
    """
    if isinstance(value, dict):
        return {str(key): _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


__all__ = [
    "JsonlSink",
    "MemorySink",
    "RunManifest",
    "SCHEMA_VERSION",
    "git_describe",
]
