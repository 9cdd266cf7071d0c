"""The checkpoint write and read paths before the direct writer and reader,
frozen as references.

``savez_state_dict`` is the previous body of
:func:`repro.nn.serialization.dump_state_dict` (``np.savez`` into memory)
and ``full_manifest_text`` the previous manifest encoding (the whole
manifest re-encoded on every write).  The current writer must produce
exactly these bytes; tests compare against them and monkeypatch them in
to write a reference checkpoint directory.  ``npload_state_dict`` is the
previous body of :func:`repro.nn.serialization.load_state_dict`
(``np.load``); the current reader must return exactly its arrays.
"""

import io
import json

import numpy as np

from repro.nn.serialization import _MANIFEST_KEY, _array_to_json, _json_to_array


def savez_state_dict(state):
    arrays = {f"array_{index}": np.asarray(value) for index, value in enumerate(state.values())}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays, **{_MANIFEST_KEY: _json_to_array(list(state.keys()))})
    return buffer.getvalue()


def npload_state_dict(source):
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    with np.load(source) as archive:
        keys = _array_to_json(archive[_MANIFEST_KEY])
        return {key: archive[f"array_{index}"] for index, key in enumerate(keys)}


def full_manifest_text(store):
    return json.dumps(store._manifest, separators=(",", ":"))
