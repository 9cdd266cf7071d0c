"""The checkpoint payload reader returns what ``np.load`` returns.

:func:`repro.nn.serialization.load_state_dict` walks the zip itself;
``np.load`` (frozen in ``payload_reference``) stays here as the reference
implementation.  Equal means the same keys in the same order, and for each
array the same dtype, shape, memory order and bytes.
"""

import gc
import io
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.nn.serialization import dump_state_dict, load_state_dict
from repro.state import FileCheckpointStore

from payload_reference import npload_state_dict
from test_payload_writer import GRID

LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "legacy_pr13"
LEGACY_FILES = sorted(LEGACY_FIXTURE.rglob("*.npz"))


def assert_same_arrays(loaded, reference):
    assert list(loaded) == list(reference)
    for key, expected in reference.items():
        actual = loaded[key]
        assert actual.dtype == expected.dtype, key
        assert actual.shape == expected.shape, key
        assert actual.flags.c_contiguous == expected.flags.c_contiguous, key
        assert actual.flags.f_contiguous == expected.flags.f_contiguous, key
        assert actual.tobytes(order="A") == expected.tobytes(order="A"), key


def npz_bytes(**members):
    """A zip of raw ``.npy`` member bytes, written by ``zipfile``."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members.items():
            archive.writestr(name + ".npy", data)
    return buffer.getvalue()


def npy_bytes(array, version=None):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version)
    return buffer.getvalue()


MANIFEST = npy_bytes(np.frombuffer(b'["w"]', dtype=np.uint8))


@pytest.mark.parametrize("key", sorted(GRID))
def test_each_dtype_and_layout_matches_np_load(key):
    payload = dump_state_dict({f"{key}/w": GRID[key], "tail": np.arange(3.0)})
    assert_same_arrays(load_state_dict(payload), npload_state_dict(payload))


def test_whole_grid_and_empty_state_match_np_load():
    for state in (GRID, {}):
        payload = dump_state_dict(state)
        assert_same_arrays(load_state_dict(payload), npload_state_dict(payload))


def test_the_zip64_end_record_archive_matches_np_load():
    state = {f"k{index}": np.array([index], dtype=np.int32) for index in range(65_535)}
    payload = dump_state_dict(state)  # 65 536 members with the key list
    assert b"PK\x06\x06" in payload[-200:]
    assert_same_arrays(load_state_dict(payload), npload_state_dict(payload))


@pytest.mark.parametrize("path", LEGACY_FILES, ids=lambda path: path.name)
def test_deflated_archives_of_older_commits_match_np_load(path):
    with zipfile.ZipFile(path) as archive:
        assert {member.compress_type for member in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    assert_same_arrays(load_state_dict(path), npload_state_dict(path))
    assert_same_arrays(load_state_dict(path.read_bytes()), npload_state_dict(path))


def test_npy_version_2_members_match_np_load():
    payload = npz_bytes(array_0=npy_bytes(np.arange(6.0).reshape(2, 3), (2, 0)),
                        __manifest__=MANIFEST)
    assert_same_arrays(load_state_dict(payload), npload_state_dict(payload))


# --------------------------------------------------------------------------- #
# What the reader refuses
# --------------------------------------------------------------------------- #
def pickled_payload():
    buffer = io.BytesIO()
    np.savez(buffer, array_0=np.array([{"a": 1}, None], dtype=object),
             __manifest__=np.frombuffer(b'["w"]', dtype=np.uint8), allow_pickle=True)
    return buffer.getvalue()


def test_object_arrays_are_refused_as_np_load_refuses_them():
    payload = pickled_payload()
    with pytest.raises(ValueError):
        npload_state_dict(payload)
    with pytest.raises(ValueError, match="object arrays"):
        load_state_dict(payload)


def test_the_store_falls_back_past_an_intact_pickled_payload(tmp_path, caplog):
    store = FileCheckpointStore(tmp_path)
    store.save("shard", "shard-0", 1.0, {"w": np.arange(3.0)}, {"value": 1.0})
    store.save("shard", "shard-0", 2.0, {"w": np.arange(3.0) + 1}, {"value": 2.0})
    manifest_path = tmp_path / FileCheckpointStore.MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    newest = manifest["records"][-1]
    payload = pickled_payload()
    (tmp_path / newest["file"]).write_bytes(payload)
    newest["checksum"] = zlib.crc32(payload)  # intact bytes: only the parse refuses them
    manifest_path.write_text(json.dumps(manifest))
    reopened = FileCheckpointStore(tmp_path)
    assert reopened._read_intact(tmp_path / newest["file"], newest["checksum"]) == payload
    arrays, meta = reopened._read_latest("shard", "shard-0")
    np.testing.assert_array_equal(arrays["w"], np.arange(3.0))
    assert meta == {"value": 1.0}
    assert "failed to parse" in caplog.text


def test_a_member_shorter_than_its_header_says_is_refused():
    body = npy_bytes(np.arange(6.0))[:-8]  # one float64 short
    payload = npz_bytes(array_0=body, __manifest__=MANIFEST)
    with pytest.raises(ValueError):
        npload_state_dict(payload)
    with pytest.raises(ValueError, match="shorter than its .npy header"):
        load_state_dict(payload)


@pytest.mark.parametrize("cut", [10, 100, -30])
def test_a_truncated_archive_is_refused(cut):
    payload = dump_state_dict({"w": np.arange(30.0), "b": np.arange(3.0)})
    with pytest.raises(ValueError):
        load_state_dict(payload[:cut])


def test_other_npy_versions_are_refused():
    payload = npz_bytes(array_0=npy_bytes(np.arange(3.0), (3, 0)), __manifest__=MANIFEST)
    with pytest.raises(ValueError, match="version 1.0 or 2.0"):
        load_state_dict(payload)


# --------------------------------------------------------------------------- #
# What a load returns: independent arrays, and no garbage
# --------------------------------------------------------------------------- #
def test_returned_arrays_are_writable_and_independent():
    state = {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(6.0).reshape(2, 3),
             "f": np.asfortranarray(np.arange(6.0).reshape(2, 3)), "s": np.array(1.5)}
    payload = dump_state_dict(state)
    first = load_state_dict(payload)
    for key, array in first.items():
        assert array.flags.writeable, key
        array[...] = -1.0
    second = load_state_dict(payload)
    for key, array in second.items():
        np.testing.assert_array_equal(array, state[key])
        assert not any(np.shares_memory(array, other) for other in first.values()), key


def test_a_load_leaves_no_cyclic_garbage():
    payload = dump_state_dict(GRID)
    load_state_dict(payload)  # parses (and caches) each distinct .npy header
    gc.collect()
    load_state_dict(payload)
    assert gc.collect() == 0
