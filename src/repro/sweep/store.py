"""Columnar results store for parameter sweeps: structured ``.npz`` + manifest.

A sweep produces thousands of homogeneous rows — exactly what a columnar
layout is for — but the environment is deliberately parquet-free, so the
store is built from what numpy already guarantees:

* ``<base>.npz`` — one structured (record) array per table, saved with
  ``np.savez_compressed`` and loaded with ``allow_pickle=False`` (no object
  dtypes ever enter the store, so a load can never execute anything);
* ``<base>.manifest.json`` — the human- and CI-readable half: the sweep
  configuration, the shared-cache summary, wall-clock totals, distribution
  summaries, and a schema block (per table: row count, field names, dtypes)
  that lets a consumer validate the ``.npz`` before touching it.

Tables
------
``points``
    One row per evaluated parameter point: the resolved value of every axis,
    the measures (availability, unavailability, optional unreliability), the
    backend that produced them, state-space sizes (compositional points),
    the CI half-width (simulated points), per-point cache hit/miss deltas,
    the derived per-point seed and the wall-clock seconds.
``sensitivities``
    One row per rate axis: the two shifted evaluations, the central
    difference and the elasticity (see :mod:`repro.sweep.sensitivity`).
``importance``
    One row per conditioned component: availability with the component
    forced up/down, Birnbaum and improvement-potential importance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import SweepError

#: Bumped whenever the table schemas change shape incompatibly.
#: Version 2 added the per-point ``status``/``error`` columns (failure
#: isolation: a point that raises becomes an error row, not a dead sweep).
STORE_VERSION = 2

#: ``points`` columns that are not parameter axes; axis names must avoid
#: these (checked when the sweep is configured).
RESERVED_POINT_FIELDS = (
    "index",
    "kind",
    "seed",
    "backend",
    "availability",
    "unavailability",
    "unreliability",
    "sim_half_width",
    "ctmc_states",
    "ctmc_transitions",
    "largest_intermediate_states",
    "cache_hits",
    "cache_misses",
    "seconds",
    "status",
    "error",
)


@dataclass
class SweepResult:
    """The in-memory form of one sweep run (tables + manifest)."""

    points: np.ndarray
    sensitivities: np.ndarray
    importance: np.ndarray
    manifest: dict = field(default_factory=dict)

    @property
    def axes(self) -> list[str]:
        """The parameter-axis columns of the ``points`` table."""
        return [
            name
            for name in (self.points.dtype.names or ())
            if name not in RESERVED_POINT_FIELDS
        ]

    def save(self, base: "str | Path") -> tuple[Path, Path]:
        """Write ``<base>.npz`` + ``<base>.manifest.json``; returns both paths."""
        return save_result(self, base)


def _schema_of(array: np.ndarray) -> dict:
    names = array.dtype.names or ()
    return {
        "rows": int(array.shape[0]),
        "fields": {name: str(array.dtype[name]) for name in names},
    }


def _base_path(base: "str | Path") -> Path:
    base = Path(base)
    if base.suffix in (".npz", ".json"):
        base = base.with_suffix("")
    if base.suffix == ".manifest":  # tolerate "<base>.manifest.json" inputs
        base = base.with_suffix("")
    return base


def save_result(result: SweepResult, base: "str | Path") -> tuple[Path, Path]:
    """Persist a :class:`SweepResult` as ``<base>.npz`` + ``<base>.manifest.json``."""
    base = _base_path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    npz_path = base.with_suffix(".npz")
    manifest_path = base.with_suffix(".manifest.json")
    tables = {
        "points": result.points,
        "sensitivities": result.sensitivities,
        "importance": result.importance,
    }
    for name, table in tables.items():
        if table.dtype.hasobject:
            raise SweepError(f"table {name!r} contains object fields; refusing to save")
    np.savez_compressed(npz_path, **tables)
    manifest = dict(result.manifest)
    manifest["store"] = {
        "version": STORE_VERSION,
        "npz": npz_path.name,
        "tables": {name: _schema_of(table) for name, table in tables.items()},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return npz_path, manifest_path


def load_result(base: "str | Path") -> SweepResult:
    """Load a sweep result saved by :func:`save_result`.

    The manifest is read first and its schema block validated against the
    arrays actually found in the ``.npz`` — a truncated or mismatched pair
    fails loudly instead of silently feeding wrong columns downstream.
    """
    base = _base_path(base)
    npz_path = base.with_suffix(".npz")
    manifest_path = base.with_suffix(".manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as error:
        raise SweepError(f"cannot read sweep manifest {manifest_path}: {error}") from error
    except json.JSONDecodeError as error:
        raise SweepError(
            f"corrupt sweep manifest {manifest_path}: not valid JSON ({error})"
        ) from error
    store = manifest.get("store")
    if not isinstance(store, dict) or store.get("version") != STORE_VERSION:
        raise SweepError(
            f"sweep manifest {manifest_path} has unsupported store block "
            f"{store!r} (expected version {STORE_VERSION})"
        )
    try:
        with np.load(npz_path, allow_pickle=False) as archive:
            tables = {name: archive[name] for name in ("points", "sensitivities", "importance")}
    except (OSError, KeyError) as error:
        raise SweepError(f"cannot read sweep store {npz_path}: {error}") from error
    for name, table in tables.items():
        expected = store.get("tables", {}).get(name)
        if expected is None or expected != _schema_of(table):
            raise SweepError(
                f"sweep store {npz_path}: table {name!r} does not match the "
                f"manifest schema (expected {expected!r}, found {_schema_of(table)!r})"
            )
    return SweepResult(
        points=tables["points"],
        sensitivities=tables["sensitivities"],
        importance=tables["importance"],
        manifest=manifest,
    )


def canonical_store_bytes(result: SweepResult) -> bytes:
    """A deterministic byte encoding of everything reproducible in a result.

    This is the comparison form of the resume bit-identity guarantee: a
    sweep interrupted and resumed must produce a store whose canonical bytes
    equal the uninterrupted run's.  Only wall-clock and the work counters of
    the cache's per-process skeleton memo are excluded — the per-point
    ``seconds`` column is zeroed and the timing totals (``totals.seconds``,
    ``cache.saved_seconds``) and ``cache.regathers``/``cache.skeleton_stores``
    dropped from the manifest (a resumed run starts with an empty memo, so
    it re-gathers less, with identical results); every measure, size, seed,
    status and cache hit/miss delta is included bit for bit.  (The raw
    ``.npz`` is not compared directly because zip archives embed write
    timestamps.)

    The encoding is length-prefixed-free but unambiguous: a canonical-JSON
    manifest, then per table its name, its dtype descriptor and the packed
    row bytes of the structured array (fixed-width fields, no padding, no
    object dtypes — guaranteed by the store's schema).
    """
    manifest = json.loads(json.dumps(result.manifest))  # deep copy, JSON-clean
    manifest.pop("store", None)
    totals = manifest.get("totals")
    if isinstance(totals, dict):
        totals.pop("seconds", None)
    cache = manifest.get("cache")
    if isinstance(cache, dict):
        for key in ("saved_seconds", "regathers", "skeleton_stores"):
            cache.pop(key, None)
    parts = [json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()]
    tables = {
        "points": result.points,
        "sensitivities": result.sensitivities,
        "importance": result.importance,
    }
    for name, table in tables.items():
        canonical = np.array(table, copy=True)
        if canonical.dtype.names and "seconds" in canonical.dtype.names:
            canonical["seconds"] = 0.0
        parts.append(name.encode())
        parts.append(str(canonical.dtype.descr).encode())
        parts.append(np.ascontiguousarray(canonical).tobytes())
    return b"\x00".join(parts)


__all__ = [
    "RESERVED_POINT_FIELDS",
    "STORE_VERSION",
    "SweepResult",
    "canonical_store_bytes",
    "load_result",
    "save_result",
]
