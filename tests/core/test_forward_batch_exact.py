"""A zero-layer client segment ships its images without a Tensor round trip.

``client_blocks=0`` (the configuration ``fanout_async`` and the centralized
baseline run) has nothing to compute on the end-system; ``forward_batch``
used to build a ``Tensor``, call the empty ``Sequential`` and copy the
result.  ``parent_forward_batch`` is that body, frozen at commit ``2506a29``;
the current method must produce the same bytes and the same bookkeeping.
"""

import numpy as np
import pytest

from repro.core.end_system import EndSystem
from repro.core.messages import ActivationMessage
from repro.core.split import SplitSpec
from repro.data.loader import DataLoader
from repro.nn import Tensor
from repro.nn.dtype import default_dtype


def parent_forward_batch(end_system, images, labels, round_index=0, created_at=0.0):
    outputs = end_system.model(Tensor(images))
    batch_id = end_system._next_batch_id
    end_system._next_batch_id += 1
    if end_system.has_trainable_parameters:
        end_system._pending[batch_id] = outputs
    end_system.samples_seen += images.shape[0]
    return ActivationMessage(
        end_system_id=end_system.system_id,
        batch_id=batch_id,
        activations=outputs.data.copy(),
        labels=np.asarray(labels).copy(),
        round_index=round_index,
        created_at=created_at,
    )


def make_end_system(architecture, parts, normalize, client_blocks, batch_size):
    loader = DataLoader(parts[0], batch_size=batch_size, transform=normalize, seed=0)
    return EndSystem(0, loader, SplitSpec(architecture, client_blocks=client_blocks), seed=3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("batch_size", [1, 7])
class TestZeroLayerForward:
    def test_same_bytes_and_bookkeeping_as_the_parent_body(
            self, tiny_architecture, tiny_parts, normalize, dtype, batch_size):
        with default_dtype(dtype):
            mine = make_end_system(tiny_architecture, tiny_parts, normalize, 0, batch_size)
            theirs = make_end_system(tiny_architecture, tiny_parts, normalize, 0, batch_size)
            assert len(mine.model) == 0 and not mine.has_trainable_parameters
            for epoch in range(2):
                pairs = zip(mine.batches(epoch), theirs.batches(epoch))
                for step, ((images, labels), (ref_images, ref_labels)) in enumerate(pairs):
                    got = mine.forward_batch(images, labels, round_index=epoch,
                                             created_at=0.5 * step)
                    expected = parent_forward_batch(theirs, ref_images, ref_labels,
                                                    round_index=epoch, created_at=0.5 * step)
                    assert got.activations.dtype == expected.activations.dtype == dtype
                    assert got.activations.tobytes() == expected.activations.tobytes()
                    assert got.activations.shape == expected.activations.shape
                    assert got.activations.flags["C_CONTIGUOUS"]
                    assert got.labels.dtype == expected.labels.dtype
                    assert got.labels.tobytes() == expected.labels.tobytes()
                    assert (got.batch_id, got.round_index, got.created_at) == (
                        expected.batch_id, expected.round_index, expected.created_at)
                    assert got.size_bytes == (
                        expected.activations.nbytes + expected.labels.nbytes + 64)
                    # A distinct buffer: the wire copy never aliases the loader's array.
                    assert not np.shares_memory(got.activations, images)
                    assert not np.shares_memory(got.labels, labels)
                    images[...] = np.nan  # scribbling on the batch cannot reach the wire copy
                    assert got.activations.tobytes() == expected.activations.tobytes()
            assert mine.pending_batches == theirs.pending_batches == 0
            assert mine.samples_seen == theirs.samples_seen == 2 * len(tiny_parts[0])
            assert mine._next_batch_id == theirs._next_batch_id

    def test_a_strided_batch_is_shipped_c_contiguous(
            self, tiny_architecture, tiny_parts, normalize, dtype, batch_size):
        with default_dtype(dtype):
            mine = make_end_system(tiny_architecture, tiny_parts, normalize, 0, batch_size)
            theirs = make_end_system(tiny_architecture, tiny_parts, normalize, 0, batch_size)
            strided = np.random.default_rng(0).random((batch_size, 8, 8, 3)).transpose(0, 3, 1, 2)
            labels = np.arange(batch_size)
            got = mine.forward_batch(strided, labels)
            expected = parent_forward_batch(theirs, strided, labels)
            assert got.activations.flags["C_CONTIGUOUS"]
            assert got.activations.tobytes() == expected.activations.tobytes()


def test_a_segment_with_layers_still_runs_them(tiny_architecture, tiny_parts, normalize):
    mine = make_end_system(tiny_architecture, tiny_parts, normalize, 1, 8)
    theirs = make_end_system(tiny_architecture, tiny_parts, normalize, 1, 8)
    for (images, labels), (ref_images, ref_labels) in zip(mine.batches(0), theirs.batches(0)):
        got = mine.forward_batch(images, labels)
        expected = parent_forward_batch(theirs, ref_images, ref_labels)
        assert got.activations.tobytes() == expected.activations.tobytes()
        assert got.activations.shape != images.shape
    assert mine.pending_batches == theirs.pending_batches == len(mine.loader)
