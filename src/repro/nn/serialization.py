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

import io
import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .layers.base import Module
from .optim import Optimizer

__all__ = [
    "dump_state_dict",
    "save_state_dict",
    "load_state_dict",
    "save_module",
    "load_module",
    "parameter_summary",
    "flatten_optimizer_state",
    "unflatten_optimizer_state",
    "save_optimizer",
    "load_optimizer",
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


def dump_state_dict(state: Dict[str, np.ndarray]) -> bytes:
    """Serialise a state dictionary to the bytes of a stored ``.npz`` archive.

    Members are ``ZIP_STORED``: float weights and optimizer slots are
    incompressible (deflate saved ~13 % at ~25 MB/s), so the archive is
    built once in memory and callers checksum / write these exact bytes.
    """
    arrays = {f"array_{index}": np.asarray(value) for index, value in enumerate(state.values())}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays, **{_MANIFEST_KEY: _json_to_array(list(state.keys()))})
    return buffer.getvalue()


def save_state_dict(state: Dict[str, np.ndarray], path: PathLike) -> Path:
    """Write a state dictionary to exactly ``path`` as a stored ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(dump_state_dict(state))
    return path


def load_state_dict(source: Union[PathLike, bytes]) -> Dict[str, np.ndarray]:
    """Read a state dictionary from a path :func:`save_state_dict` wrote, or
    from archive bytes already in memory (stored or deflated members alike)."""
    if isinstance(source, bytes):
        file: Union[io.BytesIO, Path] = io.BytesIO(source)
    else:
        file = Path(source)
        if not file.exists():
            raise FileNotFoundError(f"no checkpoint at {file}")
    with np.load(file) as archive:
        keys = _array_to_json(archive[_MANIFEST_KEY])
        return {key: archive[f"array_{index}"] for index, key in enumerate(keys)}


def save_module(module: Module, path: PathLike) -> Path:
    """Checkpoint a module's parameters and buffers."""
    return save_state_dict(module.state_dict(), path)


def load_module(module: Module, path: PathLike, strict: bool = True) -> Module:
    """Restore a module in place from a checkpoint written by :func:`save_module`."""
    module.load_state_dict(load_state_dict(path), strict=strict)
    return module


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


def save_optimizer(optimizer: Union[Optimizer, Dict[str, object]], path: PathLike) -> Path:
    """Checkpoint an optimizer (or a state dict it produced) as an npz archive."""
    state = optimizer.state_dict() if isinstance(optimizer, Optimizer) else optimizer
    return save_state_dict(flatten_optimizer_state(state), path)


def load_optimizer(optimizer: Optimizer, path: PathLike, strict: bool = True) -> Optimizer:
    """Restore an optimizer in place from :func:`save_optimizer` output.

    Dtype handling matches module checkpoints: the optimizer's
    ``load_state_dict`` casts every restored slot buffer to its live
    parameter's dtype, so cross-precision restores work both ways.
    """
    state = unflatten_optimizer_state(load_state_dict(path))
    optimizer.load_state_dict(state, strict=strict)
    return optimizer


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


def parameter_summary(module: Module) -> str:
    """Human-readable table of parameter names, shapes and counts."""
    rows = []
    total = 0
    for name, parameter in module.named_parameters():
        count = parameter.size
        total += count
        rows.append(f"{name:<40s} {str(parameter.shape):<20s} {count:>12,d}")
    rows.append("-" * 74)
    rows.append(f"{'total':<40s} {'':<20s} {total:>12,d}")
    return "\n".join(rows)
