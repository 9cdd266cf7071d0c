"""The checkpoint write path before the direct writer, frozen as a reference.

``savez_state_dict`` is the previous body of
:func:`repro.nn.serialization.dump_state_dict` (``np.savez`` into memory)
and ``full_manifest_text`` the previous manifest encoding (the whole
manifest re-encoded on every write).  The current writer must produce
exactly these bytes; tests compare against them and monkeypatch them in
to write a reference checkpoint directory.
"""

import io
import json

import numpy as np

from repro.nn.serialization import _MANIFEST_KEY, _json_to_array


def savez_state_dict(state):
    arrays = {f"array_{index}": np.asarray(value) for index, value in enumerate(state.values())}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays, **{_MANIFEST_KEY: _json_to_array(list(state.keys()))})
    return buffer.getvalue()


def full_manifest_text(store):
    return json.dumps(store._manifest, separators=(",", ":"))
