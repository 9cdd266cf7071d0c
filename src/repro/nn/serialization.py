"""Saving and loading model state.

State dictionaries are stored as ``.npz`` archives so that a trained
split configuration (end-system segments plus the server segment) can be
checkpointed and restored without pickling arbitrary objects.

Dtype policy: arrays are written with the dtype they carry in memory, and
:meth:`repro.nn.layers.base.Module.load_state_dict` casts restored values
to the dtype of the live parameters — so a checkpoint written under a
float64 precision run loads cleanly into a float32-policy model and vice
versa.
"""

from __future__ import annotations

import functools
import io
import json
import math
import struct
import sys
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np
from numpy.lib import format as npy_format


__all__ = [
    "dump_state_dict",
    "save_state_dict",
    "load_state_dict",
    "flatten_optimizer_state",
    "unflatten_optimizer_state",
    "pack_rng_state",
    "unpack_rng_state",
    "restore_rng_state",
]

PathLike = Union[str, Path]

# Qualified names ('/', '::') are not safe npz member names: arrays are stored
# as array_<i> and this member holds the JSON list of their exact keys.
_MANIFEST_KEY = "__manifest__"


def _json_to_array(value: object) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode(), dtype=np.uint8)


def _array_to_json(array: np.ndarray) -> object:
    return json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode())


# --------------------------------------------------------------------------- #
# Stored-zip writer: np.savez's bytes without zipfile
# --------------------------------------------------------------------------- #
# np.savez opens one zipfile member per array with force_zip64=True on a
# seekable buffer and ZipInfo's default timestamp (1980-01-01 00:00), so
# every byte of its archive is a function of the member names and their
# .npy bytes.  The constants below are the fields zipfile writes for such a
# member (zipfile's struct formats, ZIP64_VERSION, ZIP64_LIMIT and
# ZIP_FILECOUNT_LIMIT).
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_ZIP64_EXTRA = struct.Struct("<HHQQ")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_ZIP64_END_RECORD = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_ZIP64_VERSION = 45
_DOS_DATE = (1 << 5) | 1  # 1980-01-01; the DOS time field is 0
_CREATE_SYSTEM = 0 if sys.platform == "win32" else 3
_EXTERNAL_ATTR = 0o600 << 16
#: Past this, zipfile adds zip64 size/offset fields to the central directory,
#: which this writer does not produce (2 GiB - 1 bytes).
_ZIP32_LIMIT = (1 << 31) - 1
_FILECOUNT_LIMIT = (1 << 16) - 1
#: Kinds whose .npy body is the raw buffer (np.savez pickles the others).
_RAW_KINDS = frozenset("biufcmMSUV")


@functools.lru_cache(maxsize=1024)
def _npy_header(dtype: np.dtype, shape: Tuple[int, ...], fortran_order: bool) -> bytes:
    """The .npy header ``np.save`` writes before such an array's buffer."""
    buffer = io.BytesIO()
    npy_format.write_array_header_1_0(buffer, {
        "descr": npy_format.dtype_to_descr(dtype),
        "fortran_order": fortran_order,
        "shape": shape,
    })
    return buffer.getvalue()


def _npy_parts(key: str, array: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """``(header, buffer)`` of the .npy member for ``array``; the buffer is the
    array itself (or its transpose) whenever its memory is contiguous."""
    dtype = array.dtype
    if dtype.hasobject or dtype.kind not in _RAW_KINDS:
        raise ValueError(f"state entry {key!r} has dtype {dtype}: checkpoints hold "
                         "fixed-width numeric/bytes arrays only, never pickled objects")
    if array.flags.c_contiguous:
        fortran_order, data = False, array
    elif array.flags.f_contiguous:
        fortran_order, data = True, array.T
    else:
        fortran_order, data = False, array.copy(order="C")
    return _npy_header(dtype, array.shape, fortran_order), data


def dump_state_dict(state: Dict[str, np.ndarray]) -> bytes:
    """Serialise a state dictionary to the bytes of a stored ``.npz`` archive.

    The bytes are exactly what ``np.savez(file, array_0=..., ...,
    __manifest__=<JSON key list>)`` writes, built without ``zipfile``. Each
    member is a ``ZIP_STORED`` entry: a local header with the zip64 extra
    ``force_zip64`` adds, the ``.npy`` header (cached per dtype, shape and
    memory order), then the array's own buffer (C- or F-contiguous data is
    not copied) and one CRC-32. After the members come the central directory
    and the end record, with a zip64 end record when there are more than
    65 535 members. Float weights and optimizer slots do not compress
    (deflate saved ~13 % at ~25 MB/s), so callers checksum and write these
    exact bytes.

    Raises ``ValueError`` naming the key, and returns no archive, for an
    array ``np.savez`` would pickle (object or other non-fixed-width dtypes)
    and for an archive whose member sizes or offsets pass 2 GiB - 1 bytes,
    where ``zipfile`` switches to zip64 size fields.
    """
    members: List[Tuple[str, bytes, np.ndarray]] = [
        (key, b"array_%d.npy" % index, np.asarray(value))
        for index, (key, value) in enumerate(state.items())]
    members.append((_MANIFEST_KEY, _MANIFEST_KEY.encode() + b".npy",
                    _json_to_array(list(state.keys()))))
    parts: List[Any] = []
    directory: List[bytes] = []
    offset = 0
    for key, name, array in members:
        header, data = _npy_parts(key, array)
        size = len(header) + data.nbytes
        if size > _ZIP32_LIMIT or offset > _ZIP32_LIMIT:
            raise ValueError(f"state entry {key!r} puts the checkpoint archive past "
                             f"{_ZIP32_LIMIT} bytes, which needs zip64 size fields")
        crc = zlib.crc32(data, zlib.crc32(header))
        parts += (_LOCAL_HEADER.pack(b"PK\x03\x04", _ZIP64_VERSION, 0, 0, 0, 0, _DOS_DATE,
                                     crc, 0xFFFFFFFF, 0xFFFFFFFF, len(name), _ZIP64_EXTRA.size),
                  name, _ZIP64_EXTRA.pack(1, 16, size, size), header, data)
        directory += (_CENTRAL_HEADER.pack(b"PK\x01\x02", _ZIP64_VERSION, _CREATE_SYSTEM,
                                           _ZIP64_VERSION, 0, 0, 0, 0, _DOS_DATE, crc, size,
                                           size, len(name), 0, 0, 0, 0, _EXTERNAL_ATTR, offset),
                      name)
        offset += _LOCAL_HEADER.size + len(name) + _ZIP64_EXTRA.size + size
    count, directory_size = len(members), sum(map(len, directory))
    parts += directory
    if count > _FILECOUNT_LIMIT or offset > _ZIP32_LIMIT or directory_size > _ZIP32_LIMIT:
        parts += (_ZIP64_END_RECORD.pack(b"PK\x06\x06", 44, _ZIP64_VERSION, _ZIP64_VERSION,
                                         0, 0, count, count, directory_size, offset),
                  _ZIP64_LOCATOR.pack(b"PK\x06\x07", 0, offset + directory_size, 1))
    parts.append(_END_RECORD.pack(b"PK\x05\x06", 0, 0, min(count, 0xFFFF), min(count, 0xFFFF),
                                  min(directory_size, 0xFFFFFFFF), min(offset, 0xFFFFFFFF), 0))
    return b"".join(parts)


def save_state_dict(state: Dict[str, np.ndarray], path: PathLike) -> Path:
    """Write a state dictionary to exactly ``path`` as a stored ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(dump_state_dict(state))
    return path


# --------------------------------------------------------------------------- #
# Zip reader: the archives above, and older deflated ones, without zipfile
# --------------------------------------------------------------------------- #
# np.load opens each member through zipfile and parses its .npy header with
# ast.literal_eval, per member and per load.  The reader below walks the
# central directory once, slices (or inflates) each member out of the buffer
# and parses each distinct .npy header once per process.
_LOCAL_NAME_EXTRA = struct.Struct("<2H")  # a local header's last two fields
_NPY_MAGIC = b"\x93NUMPY"
#: .npy versions read here, by their (major, minor) bytes: the header-length
#: field that follows the magic (np.save writes 3.0 only for headers that
#: are not latin-1, which the writer above never produces).
_NPY_HEADER_LENGTH = {(1, 0): struct.Struct("<H"), (2, 0): struct.Struct("<I")}
_DEFLATED = 8


@functools.lru_cache(maxsize=1024)
def _npy_fields(header: bytes) -> Tuple[np.dtype, Tuple[int, ...], bool]:
    """``(dtype, shape, fortran_order)`` of a complete ``.npy`` header."""
    stream = io.BytesIO(header)
    version = npy_format.read_magic(stream)
    read = (npy_format.read_array_header_1_0 if version == (1, 0)
            else npy_format.read_array_header_2_0)
    shape, fortran_order, dtype = read(stream)
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded: checkpoints never hold pickles")
    return dtype, shape, fortran_order


def _read_npy(members: Dict[bytes, memoryview], name: bytes) -> np.ndarray:
    """The array the ``.npy`` member ``name`` holds, copied out of the
    archive so that it is writable and keeps no archive buffer alive."""
    body = members[name]
    length = _NPY_HEADER_LENGTH.get(tuple(body[6:8]))
    if body[:6] != _NPY_MAGIC or length is None:
        raise ValueError(f"member {name!r} is not a version 1.0 or 2.0 .npy file")
    start = len(_NPY_MAGIC) + 2 + length.size
    start += length.unpack_from(body, start - length.size)[0]
    dtype, shape, fortran_order = _npy_fields(bytes(body[:start]))
    count = math.prod(shape)
    if len(body) < start + count * dtype.itemsize:
        raise ValueError(f"member {name!r} is shorter than its .npy header says")
    flat = (np.frombuffer(body, dtype, count, start).copy() if count and dtype.itemsize
            else np.ndarray(count, dtype))
    return flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)


def _archive_members(payload: bytes) -> Dict[bytes, memoryview]:
    """Every member's uncompressed bytes by name, from one walk of the central
    directory (stored members are views of ``payload``, deflated ones are
    inflated)."""
    end = payload.rfind(b"PK\x05\x06", max(0, len(payload) - _END_RECORD.size - 0xFFFF))
    if end < 0:
        raise ValueError("not a zip archive: no end-of-central-directory record")
    fields = _END_RECORD.unpack_from(payload, end)
    count, position = fields[4], fields[6]
    locator = end - _ZIP64_LOCATOR.size
    if locator >= 0 and payload.startswith(b"PK\x06\x07", locator):
        fields = _ZIP64_END_RECORD.unpack_from(
            payload, _ZIP64_LOCATOR.unpack_from(payload, locator)[2])
        count, position = fields[7], fields[9]
    view = memoryview(payload)
    members: Dict[bytes, memoryview] = {}
    for _ in range(count):
        (signature, _, _, _, _, _, method, _, _, _, compressed, size, name_length,
         extra_length, comment_length, _, _, _, offset) = _CENTRAL_HEADER.unpack_from(
            payload, position)
        name_start = position + _CENTRAL_HEADER.size
        name = payload[name_start:name_start + name_length]
        position = name_start + name_length + extra_length + comment_length
        if signature != b"PK\x01\x02" or not payload.startswith(b"PK\x03\x04", offset):
            raise ValueError(f"member {name!r}: bad zip header signature")
        if 0xFFFFFFFF in (compressed, size, offset):
            raise ValueError(f"member {name!r} has zip64 sizes, which no checkpoint uses")
        start = offset + _LOCAL_HEADER.size + sum(
            _LOCAL_NAME_EXTRA.unpack_from(payload, offset + _LOCAL_HEADER.size - 4))
        data = view[start:start + compressed]
        if method == _DEFLATED:
            data = memoryview(zlib.decompress(data, -zlib.MAX_WBITS))
        elif method != 0:
            raise ValueError(f"member {name!r} uses zip compression method {method}")
        if len(data) != size:
            raise ValueError(f"member {name!r} is truncated")
        members[name] = data
    return members


def load_state_dict(source: Union[PathLike, bytes]) -> Dict[str, np.ndarray]:
    """Read a state dictionary from a path :func:`save_state_dict` wrote, or
    from archive bytes already in memory.

    Reads what :func:`dump_state_dict` writes — and archives older commits
    wrote with deflated members — without ``zipfile`` or ``np.load``: one
    walk of the central directory (zip64 end record included), each
    ``.npy`` header parsed once per distinct header. Every returned array is
    a writable copy that shares no memory with the archive or with another
    array. Raises ``ValueError`` for a malformed or truncated archive or
    member, a ``.npy`` version other than 1.0/2.0, and an object dtype (as
    ``np.load(allow_pickle=False)`` does); no member CRC is checked, so
    callers that need integrity checksum the bytes (the file store does).
    """
    if isinstance(source, bytes):
        payload = source
    else:
        path = Path(source)
        if not path.exists():
            raise FileNotFoundError(f"no checkpoint at {path}")
        payload = path.read_bytes()
    try:
        members = _archive_members(payload)
        keys = _array_to_json(_read_npy(members, _MANIFEST_KEY.encode() + b".npy"))
        return {key: _read_npy(members, b"array_%d.npy" % index)
                for index, key in enumerate(keys)}
    except (KeyError, struct.error, zlib.error) as exc:
        raise ValueError(f"malformed state archive: {exc!r}") from exc


# --------------------------------------------------------------------------- #
# Optimizer state and RNG streams through the same npz path
# --------------------------------------------------------------------------- #
# An optimizer state dict is nested ({"lr", "step_count", "slots": {name:
# [array-or-None, ...]}}) and a NumPy Generator's position is a JSON-able
# dict of (arbitrarily large) integers; neither fits the flat
# str->ndarray shape save_state_dict expects.  The flatteners below map
# both onto flat keys — slot buffers as "slot::{name}::{index}" arrays,
# everything non-array as a JSON blob stored the same way the manifest
# is (uint8 bytes) — so checkpoints reuse one archive format end to end.

_OPTIMIZER_META_KEY = "__optimizer__"


def flatten_optimizer_state(state: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Map a nested optimizer state dict onto flat ``str -> ndarray`` keys.

    ``None`` slot entries are simply absent from the flat view; the JSON
    meta blob records each slot's length so :func:`unflatten_optimizer_state`
    can put the holes back.
    """
    slots: Dict[str, list] = state.get("slots", {}) or {}
    meta = {
        "lr": float(state["lr"]),
        "step_count": int(state["step_count"]),
        "slot_lengths": {name: len(entries) for name, entries in slots.items()},
    }
    flat: Dict[str, np.ndarray] = {_OPTIMIZER_META_KEY: _json_to_array(meta)}
    for name, entries in slots.items():
        for index, entry in enumerate(entries):
            if entry is not None:
                flat[f"slot::{name}::{index}"] = np.asarray(entry)
    return flat


def unflatten_optimizer_state(flat: Dict[str, np.ndarray]) -> Dict[str, object]:
    """Inverse of :func:`flatten_optimizer_state`."""
    meta = _array_to_json(flat[_OPTIMIZER_META_KEY])
    slots: Dict[str, list] = {}
    for name, length in meta["slot_lengths"].items():
        slots[name] = [flat.get(f"slot::{name}::{index}") for index in range(length)]
    return {"lr": meta["lr"], "step_count": meta["step_count"], "slots": slots}


def pack_rng_state(rng: Union[np.random.Generator, Dict[str, object]]) -> np.ndarray:
    """Capture a NumPy generator's exact stream position as a uint8 array.

    The bit-generator state is a JSON-able dict (PCG64 carries 128-bit
    integers, which Python's JSON handles natively), stored as bytes the
    same way the archive manifest is — so RNG streams ride the npz path
    alongside weights.
    """
    state = rng.bit_generator.state if isinstance(rng, np.random.Generator) else rng
    return _json_to_array(state)


def unpack_rng_state(array: np.ndarray) -> Dict[str, object]:
    """Decode :func:`pack_rng_state` output back into a bit-generator state dict."""
    return _array_to_json(array)


def restore_rng_state(rng: np.random.Generator, packed: Optional[np.ndarray]) -> np.random.Generator:
    """Rewind ``rng`` to a captured stream position (no-op on ``None``)."""
    if packed is not None:
        rng.bit_generator.state = unpack_rng_state(packed)
    return rng
