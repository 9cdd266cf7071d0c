"""The checkpoint payload writer writes ``np.savez``'s exact bytes.

:func:`repro.nn.serialization.dump_state_dict` lays out the stored zip
itself; ``np.savez`` (frozen in ``payload_reference``) stays here as the
reference implementation.  Equal bytes mean equal checksums, equal
``checkpoint_bytes`` and a reader (``np.load``) that never sees a
difference.
"""

import io
import zipfile

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.nn import serialization
from repro.nn.serialization import dump_state_dict, load_state_dict
from repro.state import store as store_module

from payload_reference import savez_state_dict

BASE = np.random.default_rng(0).normal(size=(4, 5, 6))

GRID = {
    "float32": BASE.astype(np.float32),
    "float64": BASE,
    "int64": np.arange(24, dtype=np.int64).reshape(4, 6),
    "uint8": np.arange(7, dtype=np.uint8),
    "bool": BASE > 0,
    "big_endian": BASE.astype(">f8"),
    "zero_d": np.array(3.5),
    "empty": np.zeros((0, 3)),
    "empty_3d": np.zeros((3, 0, 2), dtype=np.int32),
    "fortran": np.asfortranarray(BASE),
    "strided": BASE[:, ::2, 1:],
    "negative_stride": BASE[::-1, :, ::-2],
    "transposed_2d": BASE[0].T,
    "structured": np.array([(1, 2.0)], dtype=[("a", "<i4"), ("b", ">f8")]),
    "bytes": np.array([b"xy", b"z"]),
    "python_list": [1.0, 2.0],
}


@pytest.mark.parametrize("key", sorted(GRID))
def test_each_dtype_and_layout_matches_savez(key):
    state = {f"{key}/w": GRID[key], "tail": np.arange(3.0)}
    payload = dump_state_dict(state)
    assert payload == savez_state_dict(state)
    loaded = load_state_dict(payload)
    np.testing.assert_array_equal(loaded[f"{key}/w"], np.asarray(GRID[key]))


def test_whole_grid_and_empty_state_match_savez():
    assert dump_state_dict(GRID) == savez_state_dict(GRID)
    assert dump_state_dict({}) == savez_state_dict({})


def test_more_than_65535_members_take_the_zip64_end_record():
    one = np.arange(1, dtype=np.int32)
    state = {f"k{index}": one for index in range(65_535)}  # + the key list
    payload = dump_state_dict(state)
    assert b"PK\x06\x06" in payload[-200:]  # the zip64 end-of-archive record
    assert payload == savez_state_dict(state)  # bytes only: no member is loaded


def test_every_payload_of_a_checkpointing_run_matches_savez(
        tiny_split_spec, tiny_parts4, normalize, tmp_path, monkeypatch):
    recorded = []

    def recording(arrays):
        recorded.append(dict(arrays))
        return dump_state_dict(arrays)

    monkeypatch.setattr(store_module, "dump_state_dict", recording)
    config = TrainingConfig.fast_debug(epochs=2, num_servers=2, server_sync_every=2,
                                       checkpoint_every_s=0.005,
                                       checkpoint_dir=str(tmp_path))
    SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                          train_transform=normalize).train()
    kinds = {row["kind"] for row in store_module.FileCheckpointStore(tmp_path).versions()}
    assert kinds == {"shard", "run"} and len(recorded) > 4
    for arrays in recorded:
        assert dump_state_dict(arrays) == savez_state_dict(arrays)


# --------------------------------------------------------------------------- #
# What the writer refuses, before producing anything
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("value", [np.array([{"a": 1}, None], dtype=object),
                                   np.array([(1, None)], dtype=[("n", "<i4"), ("o", "O")])])
def test_arrays_savez_would_pickle_are_refused(value):
    with pytest.raises(ValueError, match="'bad/entry'"):
        dump_state_dict({"fine": np.arange(3.0), "bad/entry": value})


LIMIT_STATE = {"big": np.zeros(1000), "small": np.arange(3.0)}


def limit_members():
    with zipfile.ZipFile(io.BytesIO(dump_state_dict(LIMIT_STATE))) as archive:
        return archive.infolist()


def test_members_past_the_zip32_limit_are_refused(monkeypatch):
    big, small, _ = limit_members()
    monkeypatch.setattr(serialization, "_ZIP32_LIMIT", small.header_offset - 1)
    with pytest.raises(ValueError, match="'small'"):  # its offset passes the limit
        dump_state_dict(LIMIT_STATE)
    monkeypatch.setattr(serialization, "_ZIP32_LIMIT", big.file_size - 1)
    with pytest.raises(ValueError, match="'big'"):  # its size passes the limit
        dump_state_dict(LIMIT_STATE)


def test_a_central_directory_past_the_limit_matches_savez(monkeypatch):
    """Every member fits, but the central directory starts past the limit:
    zipfile then writes a zip64 end record, and so must the writer."""
    last_offset = limit_members()[-1].header_offset
    state = LIMIT_STATE
    monkeypatch.setattr(serialization, "_ZIP32_LIMIT", last_offset)
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", last_offset)
    payload = dump_state_dict(state)
    assert b"PK\x06\x06" in payload
    assert payload == savez_state_dict(state)
