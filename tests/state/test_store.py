"""Durability tests for the checkpoint stores.

The property pinned throughout: **a store always loads the newest intact
checkpoint**.  Writers may die at any instant — mid-payload, between the
payload rename and the manifest write, leaving truncated temp droppings —
and a reader opening the directory afterwards must still get a
checksum-verified, fully parsed record (the previous one if the newest
write never completed).
"""

import builtins
import io
import json
import os
import shutil
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.nn.serialization import dump_state_dict
from repro.server.worker import flatten_state_dict
from repro.state import FileCheckpointStore, MemoryCheckpointStore, ShardCheckpoint
from repro.state import store as store_module
from repro.state.store import load_state_dict  # the benchmark imports it from here

from payload_reference import full_manifest_text, savez_state_dict

#: A checkpoint directory written by the commit before the single-pass write
#: path (PR 13, 31edc10): deflated npz members, ``indent=2`` manifest.  See
#: ``fixtures/legacy_pr13/README.md`` for how it was produced.
LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "legacy_pr13"


def record(value: float):
    """A tiny payload whose content encodes its version."""
    arrays = {"weights": np.full((4, 3), value), "bias": np.arange(3.0) + value}
    meta = {"value": value, "note": f"record-{value}"}
    return arrays, meta


def write(store, value: float, kind="shard", scope="shard-0"):
    arrays, meta = record(value)
    return store.save(kind, scope, sim_time=value, arrays=arrays, meta=meta)


def assert_loads(store, value: float, kind="shard", scope="shard-0"):
    loaded = store._read_latest(kind, scope)
    assert loaded is not None
    arrays, meta = loaded
    np.testing.assert_array_equal(arrays["weights"], np.full((4, 3), value))
    np.testing.assert_array_equal(arrays["bias"], np.arange(3.0) + value)
    assert meta["value"] == value


def assert_manifest_is_a_fresh_encode(store):
    """The manifest text on disk equals a full re-encode of the store's
    manifest, and of the manifest a store opened afterwards reads back."""
    text = (store.directory / FileCheckpointStore.MANIFEST_NAME).read_text()
    assert text == full_manifest_text(store)
    assert text == full_manifest_text(FileCheckpointStore(store.directory))


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_latest_wins(backend, tmp_path):
    store = MemoryCheckpointStore() if backend == "memory" else FileCheckpointStore(tmp_path)
    v1 = write(store, 1.0)
    v2 = write(store, 2.0)
    assert v2 > v1
    assert_loads(store, 2.0)
    assert store.checkpoints_written == 2
    assert store.bytes_written > 0
    assert store.write_wall_s >= 0.0


def test_scopes_are_independent(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0, scope="shard-0")
    write(store, 2.0, scope="shard-1")
    assert_loads(store, 1.0, scope="shard-0")
    assert_loads(store, 2.0, scope="shard-1")
    assert store._read_latest("shard", "shard-9") is None
    assert store._read_latest("run", "run") is None


def test_versions_listing(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0, scope="shard-0")
    write(store, 2.0, scope="shard-1")
    write(store, 3.0, scope="shard-0")
    rows = store.versions(kind="shard", scope="shard-0")
    assert [row["sim_time"] for row in rows] == [1.0, 3.0]
    assert [row["version"] for row in rows] == sorted(row["version"] for row in rows)


def test_reopen_persists(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    assert_manifest_is_a_fresh_encode(store)
    write(store, 2.0)
    assert_manifest_is_a_fresh_encode(store)
    reopened = FileCheckpointStore(tmp_path)
    assert_loads(reopened, 2.0)
    write(reopened, 3.0)  # records read from disk join the cached text
    assert_manifest_is_a_fresh_encode(reopened)


def test_keep_prunes_old_records(tmp_path):
    store = FileCheckpointStore(tmp_path, keep=2)
    for value in (1.0, 2.0, 3.0, 4.0):
        write(store, value)
        write(store, value, scope="shard-1")
        assert_manifest_is_a_fresh_encode(store)
    assert sorted(store._record_texts) == [row["version"] for row in store.versions()]
    rows = store.versions(kind="shard", scope="shard-0")
    assert [row["sim_time"] for row in rows] == [3.0, 4.0]
    # Pruned payload files are actually gone from disk.
    npz_files = sorted(path.name for path in tmp_path.glob("*.npz"))
    assert len(npz_files) == 4  # two per scope
    assert_loads(store, 4.0)


def test_memory_keep_prunes(tmp_path):
    store = MemoryCheckpointStore(keep=1)
    write(store, 1.0)
    write(store, 2.0)
    assert len(store.versions()) == 1
    assert_loads(store, 2.0)


def test_memory_store_copies_buffers():
    store = MemoryCheckpointStore()
    arrays, meta = record(1.0)
    store.save("shard", "shard-0", 1.0, arrays, meta)
    arrays["weights"][:] = 99.0  # mutate the caller's buffer after saving
    loaded, _ = store._read_latest("shard", "shard-0")
    np.testing.assert_array_equal(loaded["weights"], np.full((4, 3), 1.0))
    loaded["weights"][:] = -1.0  # and the loaded copy is private too
    assert_loads(store, 1.0)


def test_invalid_keep_rejected(tmp_path):
    with pytest.raises(ValueError):
        MemoryCheckpointStore(keep=0)
    with pytest.raises(ValueError):
        FileCheckpointStore(tmp_path, keep=-1)


# --------------------------------------------------------------------------- #
# Corruption fallback
# --------------------------------------------------------------------------- #
def newest_file(store) -> Path:
    rows = store.versions()
    return store.directory / rows[-1]["file"]


def test_corrupted_newest_falls_back(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    write(store, 2.0)
    path = newest_file(store)
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0xFF  # flip one byte mid-archive
    path.write_bytes(bytes(payload))
    assert_loads(FileCheckpointStore(tmp_path), 1.0)


def test_truncated_newest_falls_back(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    write(store, 2.0)
    path = newest_file(store)
    path.write_bytes(path.read_bytes()[: 10])
    assert_loads(FileCheckpointStore(tmp_path), 1.0)


def test_missing_newest_falls_back(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    write(store, 2.0)
    newest_file(store).unlink()
    assert_loads(FileCheckpointStore(tmp_path), 1.0)


def test_all_corrupted_returns_none(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    for row in store.versions():
        (tmp_path / row["file"]).write_bytes(b"garbage")
    assert FileCheckpointStore(tmp_path)._read_latest("shard", "shard-0") is None


def test_unreadable_manifest_starts_fresh(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    (tmp_path / FileCheckpointStore.MANIFEST_NAME).write_text("{not json")
    fresh = FileCheckpointStore(tmp_path)
    assert fresh._read_latest("shard", "shard-0") is None
    write(fresh, 2.0)
    assert_loads(fresh, 2.0)


def test_foreign_format_rejected(tmp_path):
    manifest = {"format": 99, "next_version": 1, "records": []}
    (tmp_path / FileCheckpointStore.MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format"):
        FileCheckpointStore(tmp_path)


# --------------------------------------------------------------------------- #
# Mid-write kill (property-style)
# --------------------------------------------------------------------------- #
class KilledMidWrite(RuntimeError):
    pass


class DyingStore(FileCheckpointStore):
    """A store whose writer process 'dies' after ``die_after`` bytes of the
    payload temp file have been written (plus optionally right before the
    manifest update), leaving whatever the filesystem had at that instant."""

    def __init__(self, directory, die_after=None, die_before_manifest=False):
        super().__init__(directory)
        self.die_after = die_after
        self.die_before_manifest = die_before_manifest

    def _write_record(self, kind, scope, sim_time, arrays, meta):
        if self.die_after is None and not self.die_before_manifest:
            return super()._write_record(kind, scope, sim_time, arrays, meta)
        # Simulate the real write sequence, dying at the configured point.
        intact = FileCheckpointStore(self.directory)
        version = int(intact._manifest["next_version"])
        file_name = f"ckpt_{version:06d}_{kind}_{scope}.npz"
        temp_path = self.directory / (file_name + ".tmp")
        full = dump_state_dict(arrays)  # built in memory, written once
        if self.die_after is not None:
            cut = min(self.die_after, len(full))
            temp_path.write_bytes(full[:cut])  # truncated temp dropping
            raise KilledMidWrite("died while writing the payload temp file")
        # Payload fully written and renamed; die before the manifest update.
        temp_path.write_bytes(full)
        os.replace(temp_path, self.directory / file_name)
        raise KilledMidWrite("died before updating the manifest")


@pytest.mark.parametrize("die_after", [0, 1, 17, 100, 10_000])
def test_killed_while_writing_temp_always_falls_back(tmp_path, die_after):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    dying = DyingStore(tmp_path, die_after=die_after)
    with pytest.raises(KilledMidWrite):
        write(dying, 2.0)
    # The survivor sees the last intact record, with the stale temp ignored.
    survivor = FileCheckpointStore(tmp_path)
    assert_loads(survivor, 1.0)
    # The next successful save sweeps the dropping and supersedes normally.
    write(survivor, 3.0)
    assert list(tmp_path.glob("*.tmp")) == []
    assert_loads(FileCheckpointStore(tmp_path), 3.0)
    assert_manifest_is_a_fresh_encode(survivor)


def test_killed_between_rename_and_manifest(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    dying = DyingStore(tmp_path, die_before_manifest=True)
    with pytest.raises(KilledMidWrite):
        write(dying, 2.0)
    # The orphan payload is never referenced: loads return the old record.
    assert_loads(FileCheckpointStore(tmp_path), 1.0)


def test_random_kill_offsets_property(tmp_path):
    """Many random kill points, one invariant: loads always succeed and
    always return the newest *completed* value."""
    rng = np.random.default_rng(42)
    store = FileCheckpointStore(tmp_path)
    committed = 0.0
    write(store, committed)
    reference_size = len(newest_file(store).read_bytes())
    for trial in range(12):
        value = float(trial + 1)
        if rng.random() < 0.5:
            cut = int(rng.integers(0, reference_size + 1))
            with pytest.raises(KilledMidWrite):
                write(DyingStore(tmp_path, die_after=cut), value)
        else:
            write(FileCheckpointStore(tmp_path), value)
            committed = value
        assert_loads(FileCheckpointStore(tmp_path), committed)


def test_checksums_recorded_in_manifest(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    manifest = json.loads((tmp_path / FileCheckpointStore.MANIFEST_NAME).read_text())
    entry = manifest["records"][-1]
    payload = (tmp_path / entry["file"]).read_bytes()
    assert entry["checksum"] == (zlib.crc32(payload) & 0xFFFFFFFF)


# --------------------------------------------------------------------------- #
# Retention: the manifest commits before any payload is unlinked
# --------------------------------------------------------------------------- #
def shard_checkpoint(value: float) -> ShardCheckpoint:
    """The smallest record ``save_shard``/``latest_shard`` round-trip."""
    return ShardCheckpoint({"weights::w": np.full((4, 3), value)},
                           {"shard_id": 0, "sim_time": value})


class DiesAtManifest(FileCheckpointStore):
    """Dies at the manifest commit of a pruning write: right before it
    (``committed=False``) or right after it, before the doomed payloads
    are unlinked (``committed=True``)."""

    def __init__(self, directory, keep, committed):
        super().__init__(directory, keep=keep)
        self.committed = committed

    def _write_manifest(self):
        if self.committed:
            super()._write_manifest()
        raise KilledMidWrite("died at the manifest commit")


@pytest.mark.parametrize("keep", [1, 2])
@pytest.mark.parametrize("committed", [False, True])
def test_killed_between_manifest_commit_and_prune(tmp_path, keep, committed):
    store = FileCheckpointStore(tmp_path, keep=keep)
    for value in range(1, keep + 1):
        store.save_shard(shard_checkpoint(float(value)))
    with pytest.raises(KilledMidWrite):  # this write prunes the oldest record
        DiesAtManifest(tmp_path, keep, committed).save_shard(
            shard_checkpoint(float(keep + 1)))
    survivor = FileCheckpointStore(tmp_path, keep=keep)
    loaded = survivor.latest_shard(0)
    assert loaded is not None
    assert loaded.sim_time == float(keep + 1 if committed else keep)
    np.testing.assert_array_equal(loaded.arrays["weights::w"],
                                  np.full((4, 3), loaded.sim_time))
    # Every record the on-disk manifest references still has its payload.
    assert all((tmp_path / row["file"]).exists() for row in survivor.versions())
    survivor.save_shard(shard_checkpoint(float(keep + 2)))  # prunes again
    assert_manifest_is_a_fresh_encode(survivor)
    assert len(survivor.versions()) == keep


# --------------------------------------------------------------------------- #
# Single-pass write / single-read restore
# --------------------------------------------------------------------------- #
@pytest.fixture
def opened(tmp_path, monkeypatch):
    """``(file name, mode)`` of every ``open`` under ``tmp_path``."""
    calls = []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == tmp_path:
            calls.append((Path(file).name, mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)        # pathlib, zipfile
    monkeypatch.setattr(builtins, "open", counting_open)  # np.load / np.savez
    return calls


def test_records_are_stored_not_deflated(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    with zipfile.ZipFile(newest_file(store)) as archive:
        members = archive.infolist()
    assert len(members) == 3  # two arrays + the key manifest
    assert all(member.compress_type == zipfile.ZIP_STORED for member in members)


def test_save_writes_payload_once_and_never_reads_it_back(tmp_path, opened):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    del opened[:]
    write(store, 2.0)
    payload_name = newest_file(store).name
    assert opened == [(payload_name + ".tmp", "wb"), ("manifest.json.tmp", "w")]


def test_restore_reads_each_candidate_exactly_once(tmp_path, opened):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    write(store, 2.0)
    older, newest = (tmp_path / row["file"] for row in store.versions())
    newest.write_bytes(newest.read_bytes()[:-7])  # torn tail: CRC mismatch
    reopened = FileCheckpointStore(tmp_path)
    del opened[:]
    assert_loads(reopened, 1.0)
    assert opened == [(newest.name, "rb"), (older.name, "rb")]


def test_manifest_is_one_compact_format_1_document(tmp_path):
    """The schema other readers rely on (``benchmarks/e2e/workloads.py``
    lists ``records[].file``) is unchanged by the compact encoding."""
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    write(store, 2.0, kind="run", scope="run")
    text = (tmp_path / FileCheckpointStore.MANIFEST_NAME).read_text()
    assert_manifest_is_a_fresh_encode(store)  # with a run record in it
    assert "\n" not in text and ", " not in text and '": ' not in text
    manifest = json.loads(text)
    assert list(manifest) == ["format", "next_version", "records"]
    assert manifest["format"] == 1 and manifest["next_version"] == 3
    for entry in manifest["records"]:
        assert list(entry) == ["version", "kind", "scope", "sim_time", "file",
                               "checksum", "meta"]
        assert (tmp_path / entry["file"]).is_file()
        assert_loads(store, entry["sim_time"], entry["kind"], entry["scope"])


# --------------------------------------------------------------------------- #
# Checkpoints written before the single-pass path still restore
# --------------------------------------------------------------------------- #
def test_parent_commit_checkpoints_still_restore(tiny_split_spec, tiny_parts4,
                                                 normalize, tmp_path):
    legacy = Path(shutil.copytree(LEGACY_FIXTURE, tmp_path / "legacy"))
    # The fixture really is the old format: indented manifest, deflated members.
    manifest_text = (legacy / "checkpoints" / "manifest.json").read_text()
    assert manifest_text.startswith('{\n  "format": 1,')
    payloads = sorted(legacy.rglob("*.npz"))
    assert len(payloads) == 4
    for path in payloads:
        with zipfile.ZipFile(path) as archive:
            assert {member.compress_type for member in archive.infolist()} == \
                {zipfile.ZIP_DEFLATED}

    store = FileCheckpointStore(legacy / "checkpoints")
    rows = {row["scope"]: row for row in store.versions()}
    for shard_id in (0, 1):
        shard = store.latest_shard(shard_id)
        assert shard is not None and shard.shard_id == shard_id
        assert shard.sim_time == rows[f"shard-{shard_id}"]["sim_time"]
    assert store.latest_run() is not None

    # The trainer rebuilt from the old store carries exactly the weights the
    # old code saved next to it (written by its ``save_state_dict``).
    resumed = SpatioTemporalTrainer.resume_from_store(
        store, tiny_split_spec, tiny_parts4, train_transform=normalize)
    expected = load_state_dict(legacy / "final_state.npz")
    state = flatten_state_dict(resumed.state_dict())
    assert state.keys() == expected.keys()
    for key, value in state.items():
        np.testing.assert_array_equal(value, expected[key])

    # ... and a new-format write lands beside the old records, re-encoding
    # the indented manifest as exactly the compact document.
    store.save_shard(store.latest_shard(0))
    assert len(FileCheckpointStore(legacy / "checkpoints").versions()) == 4
    assert_manifest_is_a_fresh_encode(store)


# --------------------------------------------------------------------------- #
# Write path at O(new record): one encode, no zipfile, one listing per store
# --------------------------------------------------------------------------- #
@pytest.fixture
def encoded(monkeypatch):
    """Versions of the manifest records JSON-encoded while the test runs
    (``"manifest"`` for a whole-manifest encode)."""
    calls = []
    real_dumps = json.dumps

    def spying_dumps(value, *args, **kwargs):
        if isinstance(value, dict) and "checksum" in value:
            calls.append(value["version"])
        elif isinstance(value, dict) and "records" in value:
            calls.append("manifest")
        return real_dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spying_dumps)
    return calls


@pytest.fixture
def listings(tmp_path, monkeypatch):
    """Every ``os.scandir``/``os.listdir`` of ``tmp_path``."""
    calls = []
    for name in ("scandir", "listdir"):
        real = getattr(os, name)

        def spy(path=".", _real=real, _name=name):
            if isinstance(path, (str, os.PathLike)) and Path(path) == tmp_path:
                calls.append(_name)
            return _real(path)

        monkeypatch.setattr(os, name, spy)
    return calls


def refuse(*args, **kwargs):
    raise AssertionError("the checkpoint write path must not call np.savez / zipfile")


def test_each_save_encodes_its_own_record_once(tmp_path, monkeypatch, encoded):
    store = FileCheckpointStore(tmp_path, keep=2)
    for value in (1.0, 2.0, 3.0):
        write(store, value)
        write(store, value, scope="shard-1")
    monkeypatch.setattr(np, "savez", refuse)
    monkeypatch.setattr(zipfile, "ZipFile", refuse)
    del encoded[:]
    for value in (4.0, 5.0):
        version = write(store, value)
        assert encoded[-1:] == [version] and len(encoded) == 1
        del encoded[:]
    # A store opened on the directory encodes the records it read from disk
    # once, at its first save, and then only what it appends.
    reopened = FileCheckpointStore(tmp_path, keep=2)
    version = write(reopened, 6.0)
    assert sorted(encoded) == [row["version"] for row in reopened.versions()]
    del encoded[:]
    assert write(reopened, 7.0, scope="shard-1") == version + 1
    assert encoded == [version + 1]


def test_directory_is_listed_at_most_once_per_store(tmp_path, listings):
    store = FileCheckpointStore(tmp_path, keep=1)
    for value in (1.0, 2.0, 3.0, 4.0):
        write(store, value)
    assert len(listings) <= 1
    reopened = FileCheckpointStore(tmp_path, keep=1)
    assert_loads(reopened, 4.0)
    write(reopened, 5.0)
    write(reopened, 6.0)
    assert len(listings) <= 2


@pytest.mark.parametrize("failing", ["payload", "manifest"])
def test_a_failed_write_unlinks_its_own_temp_files(tmp_path, monkeypatch, failing):
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    real_replace = os.replace

    def replace(source, target):
        if (Path(target).name == FileCheckpointStore.MANIFEST_NAME) == (failing == "manifest"):
            raise OSError("disk full")
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        write(store, 2.0)
    monkeypatch.setattr(os, "replace", real_replace)
    assert list(tmp_path.glob("*.tmp")) == []
    assert_loads(FileCheckpointStore(tmp_path), 1.0)


def test_object_arrays_are_refused_before_the_disk_is_touched(tmp_path):
    """``np.savez`` used to pickle an object array and the store committed
    the record; every later load of it failed to parse and silently fell
    back to the previous record."""
    store = FileCheckpointStore(tmp_path)
    write(store, 1.0)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    arrays, meta = record(2.0)
    arrays["clients/ids"] = np.array([{"id": 1}, None], dtype=object)
    with pytest.raises(ValueError, match="'clients/ids'"):
        store.save("shard", "shard-0", 2.0, arrays, meta)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    assert_loads(FileCheckpointStore(tmp_path), 1.0)
    assert write(store, 3.0) == 2  # the refused record took no version
    assert_loads(FileCheckpointStore(tmp_path), 3.0)


def test_a_checkpointing_run_writes_the_reference_bytes(
        tiny_split_spec, tiny_parts4, normalize, tmp_path, monkeypatch, encoded):
    """A tiny checkpointing run leaves the same directory, byte for byte,
    as the same run with the previous write functions patched in."""
    directory = tmp_path / "checkpoints"  # run records hold the config, path included

    def run():
        shutil.rmtree(directory, ignore_errors=True)
        config = TrainingConfig.fast_debug(epochs=2, num_servers=2, server_sync_every=2,
                                           checkpoint_every_s=0.005,
                                           checkpoint_dir=str(directory))
        SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                              train_transform=normalize).train()
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "dump_state_dict", savez_state_dict)
        patch.setattr(FileCheckpointStore, "_manifest_text", full_manifest_text)
        reference = run()
    written = run()
    assert written.keys() == reference.keys() and len(written) > 5
    assert all(written[name] == reference[name] for name in written)
    # Opening the store to resume reads the manifest and encodes nothing.
    del encoded[:]
    store = FileCheckpointStore(directory)
    assert store.latest_run() is not None and store.latest_shard(0) is not None
    assert encoded == []
