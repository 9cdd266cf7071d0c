"""Checkpoint stores: the durability layer under the checkpoint records.

Two backends share one record-oriented API.  A record is
``(kind, scope, version, sim_time, arrays, meta)`` — ``kind`` is
``"shard"`` or ``"run"``, ``scope`` identifies the object (``"shard-0"``,
``"run"``), ``version`` is a store-wide monotone counter, ``arrays`` is
the flat npz payload and ``meta`` a JSON-able dict.

:class:`MemoryCheckpointStore` is the in-process reference: deep copies
in, deep copies out, nothing shared with the live objects.

:class:`FileCheckpointStore` is the durable backend.  A write costs
O(the new record) and is crash-consistent:

1. the record is serialised once, in memory, as a *stored*
   (``ZIP_STORED``) npz — :func:`~repro.nn.serialization.dump_state_dict`
   writes ``np.savez``'s exact bytes from the arrays' own buffers, and
   refuses (``ValueError``, nothing on disk touched) an array it would
   have to pickle — and those bytes are CRC-32'd; weights and Adam slots
   are incompressible float noise, so deflate bought ~13 % of the bytes at
   ~25 MB/s, and nothing is read back to checksum it,
2. the bytes are written to a ``*.tmp`` file which is atomically renamed
   onto its final name (``os.replace``), and only then
3. the versioned ``manifest.json`` — compact JSON, also temp-then-rename
   — is updated to reference the new file and its checksum; payloads the
   retention bound (``keep``) retires are unlinked after that commit.

The manifest text is the join of each record's compact JSON, cached by
version: a record is encoded once, at the first write that needs it (its
own save, or the first save after opening a directory that already holds
it), so a store opened only to resume encodes nothing, and pruned records
leave the cache with their manifest entries.  The store therefore owns a
record's ``meta`` once :meth:`CheckpointStore.save` returns; callers must
not mutate it afterwards.

A crash at any point leaves either the old manifest (the new payload is
an unreferenced orphan) or the new one (the payload rename already
happened), never a manifest pointing at a half-written or deleted file.
A write that raises unlinks its own temp files before re-raising.
Loads walk the manifest newest-first; each candidate file is read once,
the checksum is verified on those bytes and the arrays are copied out of
the same buffer by :func:`~repro.nn.serialization.load_state_dict` (one
walk of the zip's central directory; stored and older deflated members
alike), falling back to the previous intact checkpoint when the newest
is truncated, corrupted or holds what the reader refuses (an object
array); stale ``*.tmp`` droppings a killed writer left are ignored by
loads and swept by each store's first save (the directory is listed once
per store, not once per write).
"""

from __future__ import annotations

import copy
import json
import logging
import os
import time
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..nn.serialization import dump_state_dict, load_state_dict
from .checkpoint import RunCheckpoint, ShardCheckpoint

__all__ = ["CheckpointStore", "MemoryCheckpointStore", "FileCheckpointStore"]

logger = logging.getLogger(__name__)

_RUN_SCOPE = "run"


class CheckpointStore:
    """Abstract store API plus the typed convenience layer.

    Subclasses implement the record-level primitives
    (:meth:`_write_record`, :meth:`_read_latest`, :meth:`_all_records`);
    the typed helpers (``save_shard``/``latest_shard``/``save_run``/
    ``latest_run``) and the write-overhead accounting the experiments
    report live here so every backend measures identically.
    """

    def __init__(self, keep: Optional[int] = None) -> None:
        if keep is not None and keep <= 0:
            raise ValueError(f"keep must be positive (or None), got {keep}")
        #: Per-scope retention bound (``keep`` newest records; ``None`` = all).
        self.keep = keep
        #: Write-overhead accounting (surfaced by history ``queue_stats``
        #: and the ``server_failover`` RPO-vs-overhead sweep).
        self.checkpoints_written = 0
        self.bytes_written = 0
        self.write_wall_s = 0.0

    # ------------------------------------------------------------------ #
    # Record-level primitives (backend-specific)
    # ------------------------------------------------------------------ #
    def _write_record(self, kind: str, scope: str, sim_time: float,
                      arrays: Dict[str, np.ndarray],
                      meta: Dict[str, Any]) -> Tuple[int, int]:
        """Persist one record; return ``(version, payload_bytes)``."""
        raise NotImplementedError

    def _read_latest(self, kind: str, scope: str
                     ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Newest intact record for ``(kind, scope)``, or ``None``."""
        raise NotImplementedError

    def _all_records(self) -> Iterable[Dict[str, Any]]:
        """Every stored record's metadata dict, in any order."""
        raise NotImplementedError

    def versions(self, kind: Optional[str] = None,
                 scope: Optional[str] = None) -> List[Dict[str, Any]]:
        """Metadata of stored records (oldest first), optionally filtered."""
        rows = [{key: record[key]
                 for key in ("version", "kind", "scope", "sim_time", "file")
                 if key in record}
                for record in self._all_records()
                if kind in (None, record["kind"]) and scope in (None, record["scope"])]
        return sorted(rows, key=lambda row: row["version"])

    # ------------------------------------------------------------------ #
    # Shared save path (timing + accounting)
    # ------------------------------------------------------------------ #
    def save(self, kind: str, scope: str, sim_time: float,
             arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> int:
        """Persist a record and account the write cost; returns its version."""
        started = time.perf_counter()
        version, payload_bytes = self._write_record(kind, scope, sim_time,
                                                    arrays, meta)
        self.write_wall_s += time.perf_counter() - started
        self.checkpoints_written += 1
        self.bytes_written += payload_bytes
        return version

    # ------------------------------------------------------------------ #
    # Typed convenience layer
    # ------------------------------------------------------------------ #
    def save_shard(self, checkpoint: ShardCheckpoint) -> int:
        return self.save("shard", f"shard-{checkpoint.shard_id}",
                         checkpoint.sim_time, checkpoint.arrays, checkpoint.meta)

    def latest_shard(self, shard_id: int) -> Optional[ShardCheckpoint]:
        record = self._read_latest("shard", f"shard-{shard_id}")
        return None if record is None else ShardCheckpoint(*record)

    def save_run(self, checkpoint: RunCheckpoint) -> int:
        return self.save("run", _RUN_SCOPE, checkpoint.engine_clock,
                         checkpoint.arrays, checkpoint.meta)

    def latest_run(self) -> Optional[RunCheckpoint]:
        record = self._read_latest("run", _RUN_SCOPE)
        return None if record is None else RunCheckpoint(*record)


class MemoryCheckpointStore(CheckpointStore):
    """In-memory reference backend: deep copies, no shared buffers."""

    def __init__(self, keep: Optional[int] = None) -> None:
        super().__init__(keep)
        self._records: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        self._next_version = 1

    def _write_record(self, kind: str, scope: str, sim_time: float,
                      arrays: Dict[str, np.ndarray],
                      meta: Dict[str, Any]) -> Tuple[int, int]:
        version = self._next_version
        self._next_version += 1
        stored_arrays = {key: np.array(value, copy=True)
                         for key, value in arrays.items()}
        payload_bytes = sum(value.nbytes for value in stored_arrays.values())
        records = self._records.setdefault((kind, scope), [])
        records.append({
            "version": version,
            "kind": kind,
            "scope": scope,
            "sim_time": float(sim_time),
            "arrays": stored_arrays,
            "meta": copy.deepcopy(meta),
        })
        if self.keep is not None and len(records) > self.keep:
            del records[: len(records) - self.keep]
        return version, payload_bytes

    def _read_latest(self, kind: str, scope: str
                     ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        records = self._records.get((kind, scope))
        if not records:
            return None
        record = records[-1]
        arrays = {key: np.array(value, copy=True)
                  for key, value in record["arrays"].items()}
        return arrays, copy.deepcopy(record["meta"])

    def _all_records(self) -> Iterable[Dict[str, Any]]:
        return (record for records in self._records.values() for record in records)


class FileCheckpointStore(CheckpointStore):
    """Durable npz-per-record backend with a versioned JSON manifest."""

    MANIFEST_NAME = "manifest.json"
    FORMAT = 1

    def __init__(self, directory: Union[str, Path],
                 keep: Optional[int] = None) -> None:
        super().__init__(keep)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest = self._load_manifest()
        #: Compact JSON text of each manifest record, by version.
        self._record_texts: Dict[int, str] = {}
        self._swept = False

    # ------------------------------------------------------------------ #
    # Manifest handling
    # ------------------------------------------------------------------ #
    @property
    def _manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    @property
    def _manifest_temp_path(self) -> Path:
        return self._manifest_path.with_suffix(".json.tmp")

    def _load_manifest(self) -> Dict[str, Any]:
        empty: Dict[str, Any] = {"format": self.FORMAT, "next_version": 1, "records": []}
        path = self._manifest_path
        if not path.exists():
            return empty
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            logger.warning("unreadable checkpoint manifest at %s; starting fresh", path)
            return empty
        if manifest.get("format") != self.FORMAT:
            raise ValueError(
                f"checkpoint store at {self.directory} uses format "
                f"{manifest.get('format')!r}, expected {self.FORMAT}"
            )
        return manifest

    def _record_text(self, record: Dict[str, Any]) -> str:
        text = self._record_texts.get(record["version"])
        if text is None:
            text = self._record_texts[record["version"]] = _compact_json(record)
        return text

    def _manifest_text(self) -> str:
        """``json.dumps(self._manifest, separators=(",", ":"))``, with each
        record's text taken from the cache (encoded on first use)."""
        fields: List[str] = []
        for key, value in self._manifest.items():
            text = ("[" + ",".join(map(self._record_text, value)) + "]"
                    if key == "records" else _compact_json(value))
            fields.append(f"{_compact_json(key)}:{text}")
        return "{" + ",".join(fields) + "}"

    def _write_manifest(self) -> None:
        tmp = self._manifest_temp_path
        tmp.write_text(self._manifest_text())
        os.replace(tmp, self._manifest_path)

    # ------------------------------------------------------------------ #
    # Record primitives
    # ------------------------------------------------------------------ #
    def _write_record(self, kind: str, scope: str, sim_time: float,
                      arrays: Dict[str, np.ndarray],
                      meta: Dict[str, Any]) -> Tuple[int, int]:
        # One pass: the archive is built once in memory (a refused array
        # raises here, before the disk is touched), and the bytes that are
        # checksummed are the bytes that are written — no read-back.
        payload = dump_state_dict(arrays)
        self._sweep_stale_temps()
        version = int(self._manifest["next_version"])
        self._manifest["next_version"] = version + 1
        file_name = f"ckpt_{version:06d}_{kind}_{scope}.npz"
        temp_path = self.directory / (file_name + ".tmp")
        try:
            temp_path.write_bytes(payload)
            # Payload first, manifest second: a crash in between leaves an
            # orphan file the manifest never references — not a manifest
            # entry pointing at garbage.
            os.replace(temp_path, self.directory / file_name)
            self._manifest["records"].append({
                "version": version,
                "kind": kind,
                "scope": scope,
                "sim_time": float(sim_time),
                "file": file_name,
                "checksum": zlib.crc32(payload) & 0xFFFFFFFF,
                "meta": meta,
            })
            doomed = self._prune(kind, scope)
            self._write_manifest()
        except BaseException:
            self._unlink_quietly([temp_path, self._manifest_temp_path])
            raise
        # Unlink only what the committed manifest no longer references: a
        # crash before this point leaves orphans, never a dangling entry.
        self._unlink_quietly(self.directory / name for name in doomed)
        return version, len(payload)

    def _read_latest(self, kind: str, scope: str
                     ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        candidates = [record for record in self._manifest["records"]
                      if record["kind"] == kind and record["scope"] == scope]
        for record in sorted(candidates, key=lambda r: r["version"], reverse=True):
            path = self.directory / record["file"]
            # One read serves both the checksum and the parse below.
            payload = self._read_intact(path, record["checksum"])
            if payload is None:
                logger.warning(
                    "checkpoint %s (version %s) is missing or corrupted; "
                    "falling back to the previous intact checkpoint",
                    path, record["version"],
                )
                continue
            try:
                arrays = load_state_dict(payload)
            except ValueError:  # intact bytes the reader refuses (an object array)
                logger.warning("checkpoint %s failed to parse; falling back", path)
                continue
            return arrays, copy.deepcopy(record["meta"])
        return None

    def _all_records(self) -> Iterable[Dict[str, Any]]:
        return iter(self._manifest["records"])

    # ------------------------------------------------------------------ #
    # Durability helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _read_intact(path: Path, checksum: int) -> Optional[bytes]:
        """The file's bytes if they match ``checksum``, else ``None``."""
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        return payload if (zlib.crc32(payload) & 0xFFFFFFFF) == int(checksum) else None

    @staticmethod
    def _unlink_quietly(paths: Iterable[Path]) -> None:
        """Best-effort removal: cleanup must never fail a save."""
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass

    def _sweep_stale_temps(self) -> None:
        """Unlink the ``*.tmp`` droppings a killed writer left behind; runs
        at this store's first save only (its own failed writes clean up)."""
        if self._swept:
            return
        self._swept = True
        with os.scandir(self.directory) as entries:
            stale = [Path(entry.path) for entry in entries if entry.name.endswith(".tmp")]
        self._unlink_quietly(stale)

    def _prune(self, kind: str, scope: str) -> List[str]:
        """Drop records beyond the per-scope retention bound (``keep``
        newest) from the manifest and the text cache; returns their
        payload file names."""
        if self.keep is None:
            return []
        matching = [record for record in self._manifest["records"]
                    if record["kind"] == kind and record["scope"] == scope]
        doomed = sorted(matching, key=lambda r: r["version"])[:-self.keep]
        doomed_versions = {record["version"] for record in doomed}
        self._manifest["records"] = [
            record for record in self._manifest["records"]
            if record["version"] not in doomed_versions
        ]
        for version in doomed_versions:
            self._record_texts.pop(version, None)
        return [record["file"] for record in doomed]


def _compact_json(value: Any) -> str:
    # Compact separators and no indent keep json on its C encoder.
    return json.dumps(value, separators=(",", ":"))
