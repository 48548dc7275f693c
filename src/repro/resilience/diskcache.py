"""Checksummed on-disk persistence for :class:`~repro.composer.QuotientCache`.

File format (``CACHE_STORE_VERSION`` 4)
---------------------------------------
One ``np.savez_compressed`` archive.  The member ``index`` is a uint8 array
holding a canonical-JSON document::

    {"format": "repro-quotient-cache", "version": 4,
     "counters": {"hits": ..., "misses": ..., "stores": ..., "saved_seconds": ...},
     "entries": [{"key": ..., "slot": "e00000", "checksum": "<sha256 hex>",
                  "name": ..., "inputs": [...], "outputs": [...],
                  "internals": [...], "num_states": ..., "initial": ...,
                  "labels": {"3": ["up"]}, "name_arrays": 2,
                  "slots": [...], "states_before": ..., ...}, ...]}

and each entry owns array members under its ``slot`` prefix.  Eight are the
CSR tables of its automaton, exactly the columns an :class:`IOIMC` is
rebuilt from by :meth:`IOIMC.from_tables` (``<slot>.ii/is/ia/it``
interactive indptr/source/action/target, ``<slot>.mi/ms/mr/mt`` Markovian
indptr/source/rate/target).  Action ids index
``sorted(signature.all_actions)`` — the interning of
:class:`~repro.ioimc.indexed.TransitionIndex` — so the signature name lists
in the index fully decode the action column.  The other ``name_arrays``
members ``<slot>.n0``, ``<slot>.n1``, ... are the entry's state names as
provenance (:mod:`repro.names`): one index array per selection, outermost
first, then the left and right operand-state arrays of the step's product.
A loaded entry therefore names its states after the operands of the step it
serves, exactly like an in-memory one.  No pickle anywhere: the archive is
loaded with ``allow_pickle=False``.

Integrity
---------
Every entry carries a SHA-256 over its structural metadata plus the raw
bytes (with dtype and shape) of its arrays, in fixed order.  On load
the checksum is verified first, then the columns go through the structural
checks of :meth:`IOIMC.validate` (row offsets, id ranges, finite positive
rates, labels and name arrays that fit the state count).  The checksum is
unkeyed: it catches accidental corruption, not tampering.  Anyone who edits
an entry can recompute it, and an edit that stays structurally valid (a
changed rate, say) loads and changes the results.  Treat a cache file as
trusted input.  An entry that fails — corrupt bytes, missing member,
undecodable metadata, invalid columns — is **quarantined**:
counted, reported by key in the :class:`CacheLoadReport`, surfaced through
the ``resilience.cache.quarantined`` telemetry counter, and skipped.  Only
whole-file problems (unreadable archive, missing/unparsable index,
unsupported version) raise :class:`~repro.errors.CacheStoreError` — a cache
file is an accelerator, and a scratched accelerator must never kill the
analysis that would simply have run slower without it.

Writes are atomic: the archive is written to a temporary file in the target
directory, fsynced, then ``os.replace``d over the destination — a crash
mid-write leaves either the old file or none, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..composer.cache import CacheEntry, QuotientCache
from ..errors import CacheStoreError
from ..ioimc import IOIMC, InteractiveCSR, MarkovianCSR
from ..ioimc.actions import Signature
from ..names import NameSource, ProductNames, SelectedNames
from ..telemetry import incr, span

#: Version of the on-disk archive layout.  Bump on any incompatible change;
#: the loader refuses other versions loudly instead of misreading them.
#: Version 2: ``states_before`` counts the product built under maximal
#: progress; version-1 archives recorded the full product.  Version 3: result
#: keys end in the reduction mode; version-2 keys also ended in a
#: vanishing-elimination flag, which is no longer an option.  Version 4:
#: state names are provenance index arrays; version-3 archives stored each
#: entry's names as a list, which named a hit's states after another replica.
CACHE_STORE_VERSION = 4

_FORMAT = "repro-quotient-cache"

#: CSR array members of one entry, in checksum order: interactive CSR
#: (indptr, source, action, target) then Markovian CSR
#: (indptr, source, rate, target).
_ARRAY_FIELDS = ("ii", "is", "ia", "it", "mi", "ms", "mr", "mt")


def _array_fields(metadata: dict) -> tuple[str, ...]:
    """Every array member of one entry, in checksum order: the CSR tables,
    then the ``name_arrays`` provenance arrays ``n0``, ``n1``, ..."""
    return _ARRAY_FIELDS + tuple(f"n{i}" for i in range(metadata["name_arrays"]))


@dataclass(frozen=True)
class CacheLoadReport:
    """Outcome of one :func:`load_cache` call."""

    path: str
    #: Entries restored into the cache.
    loaded: int
    #: Entries skipped because they failed verification or reconstruction.
    quarantined: int
    #: Step keys of the quarantined entries (for logs and assertions).
    quarantined_keys: tuple[str, ...]


def _canonical_json(document) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def _entry_metadata(key: str, entry: CacheEntry) -> dict:
    """Structural metadata of one entry (everything but the arrays)."""
    automaton = entry.automaton
    signature = automaton.signature
    return {
        "key": key,
        "name": automaton.name,
        "inputs": sorted(signature.inputs),
        "outputs": sorted(signature.outputs),
        "internals": sorted(signature.internals),
        "num_states": automaton.num_states,
        "initial": automaton.initial,
        "labels": {
            str(state): sorted(props) for state, props in automaton.labels.items()
        },
        "name_arrays": len(_name_arrays(automaton.name_source)),
        "slots": list(entry.slots),
        "states_before": entry.states_before,
        "transitions_before": entry.transitions_before,
        "states_after": entry.states_after,
        "transitions_after": entry.transitions_after,
        "compose_seconds": entry.compose_seconds,
        "reduce_seconds": entry.reduce_seconds,
    }


def _name_arrays(source: NameSource | None) -> list[np.ndarray]:
    """A step result's state names as index arrays, outermost first.

    A composer step's names are a product of its operands' names under zero
    or more selections; the operands themselves are not stored, since a hit
    rebinds the names to the operands it joins (:func:`repro.names.rebind`).
    """
    arrays = []
    while isinstance(source, SelectedNames):
        arrays.append(source.index)
        source = source.parent
    if not isinstance(source, ProductNames):
        raise CacheStoreError("a cache entry's state names must come from a product")
    return arrays + [source.left_index, source.right_index]


def _names_from_arrays(arrays: list[np.ndarray]) -> NameSource:
    """Inverse of :func:`_name_arrays`, over not yet bound operands.

    Every selection must pick from the states below it, so corrupt arrays
    are refused on load rather than when a name is read.
    """
    *selections, left, right = arrays
    if (
        any(array.ndim != 1 or array.dtype.kind not in "iu" for array in arrays)
        or len(left) != len(right)
        or (len(left) and min(left.min(), right.min()) < 0)
    ):
        raise CacheStoreError("malformed state-name arrays")
    source = ProductNames(None, None, left, right)
    for index in reversed(selections):
        if len(index) and (index.min() < -1 or index.max() >= len(source)):
            raise CacheStoreError("state-name selection out of range")
        source = SelectedNames(source, index)
    return source


def _entry_arrays(entry: CacheEntry) -> dict[str, np.ndarray]:
    automaton = entry.automaton
    index = automaton.index()
    icsr = index.interactive_csr
    mcsr = index.markovian_csr
    arrays = {
        "ii": icsr.indptr,
        "is": icsr.source,
        "ia": icsr.action,
        "it": icsr.target,
        "mi": mcsr.indptr,
        "ms": mcsr.source,
        "mr": mcsr.rate,
        "mt": mcsr.target,
    }
    for position, array in enumerate(_name_arrays(automaton.name_source)):
        arrays[f"n{position}"] = array
    return arrays


def _checksum(metadata: dict, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the metadata and the raw array payloads, in fixed order."""
    digest = hashlib.sha256()
    digest.update(_canonical_json(metadata))
    for field in _array_fields(metadata):
        array = np.ascontiguousarray(arrays[field])
        digest.update(field.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_cache(cache: QuotientCache, path: str | Path) -> int:
    """Persist a cache's step entries atomically; returns the entry count."""
    path = Path(path)
    members: dict[str, np.ndarray] = {}
    index_entries = []
    with span("resilience.cache.save", path=str(path)):
        for position, (key, entry) in enumerate(sorted(cache.entries().items())):
            slot = f"e{position:05d}"
            metadata = _entry_metadata(key, entry)
            arrays = _entry_arrays(entry)
            checksum = _checksum(metadata, arrays)
            for field, array in arrays.items():
                members[f"{slot}.{field}"] = array
            index_entries.append({**metadata, "slot": slot, "checksum": checksum})
        document = {
            "format": _FORMAT,
            "version": CACHE_STORE_VERSION,
            "counters": {
                "hits": cache.hits,
                "misses": cache.misses,
                "stores": cache.stores,
                "saved_seconds": cache.saved_seconds,
            },
            "entries": index_entries,
        }
        members["index"] = np.frombuffer(_canonical_json(document), dtype=np.uint8)
        atomic_savez(path, members)
    return len(index_entries)


def atomic_savez(path: Path, members: dict[str, np.ndarray]) -> None:
    """Write a compressed ``.npz`` atomically (temp file + fsync + rename).

    Shared by the cache store and the sweep checkpoint: a crash at any
    instant leaves either the previous file or no file — never a torn
    archive that a later load would have to guess about.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            np.savez_compressed(handle, **members)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _decode_entry(metadata: dict, archive) -> tuple[str, CacheEntry]:
    """Verify one entry's checksum and rebuild its :class:`CacheEntry`.

    Raises on any problem — missing member, checksum mismatch, malformed
    metadata, columns that fail :meth:`IOIMC.validate`; the caller
    quarantines.  Verification happens strictly before the entry is used,
    so structurally invalid columns can never reach the pipeline.
    """
    slot = metadata["slot"]
    arrays = {field: archive[f"{slot}.{field}"] for field in _array_fields(metadata)}
    structural = {
        field: value
        for field, value in metadata.items()
        if field not in ("slot", "checksum")
    }
    if _checksum(structural, arrays) != metadata["checksum"]:
        raise CacheStoreError(f"checksum mismatch for entry {metadata['key']!r}")
    signature = Signature.create(
        inputs=metadata["inputs"],
        outputs=metadata["outputs"],
        internals=metadata["internals"],
    )
    automaton = IOIMC.from_tables(
        metadata["name"],
        signature,
        metadata["initial"],
        InteractiveCSR(arrays["ii"], arrays["is"], arrays["ia"], arrays["it"]),
        MarkovianCSR(arrays["mi"], arrays["ms"], arrays["mr"], arrays["mt"]),
        {
            int(state): frozenset(props)
            for state, props in metadata["labels"].items()
        },
        _names_from_arrays([arrays[f"n{i}"] for i in range(metadata["name_arrays"])]),
    )
    # The checksum is unkeyed, so a re-checksummed edit passes it: run the
    # constructor's structural checks before anything indexes the columns.
    automaton.validate()
    if automaton.num_states != metadata["num_states"]:
        raise CacheStoreError(
            f"state count mismatch for entry {metadata['key']!r}"
        )
    slots = tuple(metadata["slots"])
    if set(slots) != set(signature.visible):
        raise CacheStoreError(
            f"slot/alphabet mismatch for entry {metadata['key']!r}"
        )
    entry = CacheEntry(
        automaton=automaton,
        slots=slots,
        states_before=metadata["states_before"],
        transitions_before=metadata["transitions_before"],
        states_after=metadata["states_after"],
        transitions_after=metadata["transitions_after"],
        compose_seconds=metadata["compose_seconds"],
        reduce_seconds=metadata["reduce_seconds"],
    )
    return metadata["key"], entry


def load_cache(
    path: str | Path, cache: QuotientCache | None = None
) -> tuple[QuotientCache, CacheLoadReport]:
    """Load a persisted cache, quarantining (not raising on) corrupt entries.

    Entries are restored into ``cache`` (a fresh :class:`QuotientCache` when
    ``None``) and the saved counters are *added* to its counters, so loading
    into a warm cache keeps its own traffic and loading into a fresh one
    restores the saved counters exactly.  Raises
    :class:`~repro.errors.CacheStoreError` only for whole-file failures.
    """
    path = Path(path)
    with span("resilience.cache.load", path=str(path)):
        try:
            archive = np.load(path, allow_pickle=False)
        except OSError as error:
            raise CacheStoreError(f"cannot read cache file {path}: {error}") from error
        except ValueError as error:
            raise CacheStoreError(
                f"cache file {path} is not a readable archive: {error}"
            ) from error
        with archive:
            try:
                document = json.loads(bytes(archive["index"]).decode())
            except KeyError as error:
                raise CacheStoreError(
                    f"cache file {path} has no index member"
                ) from error
            except (ValueError, UnicodeDecodeError) as error:
                raise CacheStoreError(
                    f"cache file {path} has an unparsable index: {error}"
                ) from error
            if document.get("format") != _FORMAT:
                raise CacheStoreError(
                    f"cache file {path} has unknown format "
                    f"{document.get('format')!r} (expected {_FORMAT!r})"
                )
            if document.get("version") != CACHE_STORE_VERSION:
                raise CacheStoreError(
                    f"cache file {path} has unsupported version "
                    f"{document.get('version')!r} "
                    f"(this build reads version {CACHE_STORE_VERSION})"
                )
            target = cache if cache is not None else QuotientCache()
            loaded = 0
            quarantined_keys = []
            for metadata in document.get("entries", []):
                key = metadata.get("key", "<unknown>")
                try:
                    key, entry = _decode_entry(metadata, archive)
                except Exception:
                    quarantined_keys.append(str(key))
                    incr("resilience.cache.quarantined")
                    continue
                target.restore(key, entry)
                loaded += 1
            target.restore_counters(document.get("counters", {}))
    return target, CacheLoadReport(
        path=str(path),
        loaded=loaded,
        quarantined=len(quarantined_keys),
        quarantined_keys=tuple(quarantined_keys),
    )


__all__ = [
    "CACHE_STORE_VERSION",
    "CacheLoadReport",
    "load_cache",
    "save_cache",
]
