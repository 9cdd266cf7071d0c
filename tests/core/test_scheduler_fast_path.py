"""Counter guard for the scheduler fast path — counts, never a clock.

One asynchronous run of the conftest tiny workload (2 end-systems, 2 epochs,
batch 1 — the shape of the ``fanout_async`` benchmark) must do its
per-message work without the per-message Python the fast path removed:

* activation and gradient legs never size their payload recursively — the
  message fixed its wire size at construction;
* a pure transform (``Normalize``) runs once per loader, not once per batch;
* a zero-layer client segment builds no ``Tensor`` per message.

Each assertion fails at the parent commit (``2506a29``).  A 200-client pass
guards the message kernel's own per-message calls and the server step's
GEMMs the same way.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.core.end_system as end_system_module
import repro.simnet.link as link_module
from repro.core.config import TrainingConfig
from repro.core.engine import TrainingEngine
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import SyntheticCIFAR10
from repro.data.partition import IIDPartitioner
from repro.data.transforms import Normalize
from repro.utils.perf import track

EPOCHS = 2


@pytest.fixture
def counted_run(tiny_architecture, tiny_parts, normalize, monkeypatch):
    counts = Counter()
    trainer = SpatioTemporalTrainer(
        SplitSpec(tiny_architecture, client_blocks=0), tiny_parts,
        TrainingConfig(epochs=EPOCHS, batch_size=1, mode="asynchronous", seed=0),
        train_transform=normalize)

    payload_bytes = link_module.payload_bytes

    def counted_payload_bytes(payload):
        counts["payload_bytes"] += 1
        return payload_bytes(payload)

    monkeypatch.setattr(link_module, "payload_bytes", counted_payload_bytes)

    normalize_call = Normalize.__call__

    def counted_normalize(self, batch):
        counts["normalize"] += 1
        counts["normalized_samples"] += batch.shape[0]
        return normalize_call(self, batch)

    monkeypatch.setattr(Normalize, "__call__", counted_normalize)

    tensor = end_system_module.Tensor

    def counted_tensor(*args, **kwargs):
        counts["client_tensors"] += 1
        return tensor(*args, **kwargs)

    monkeypatch.setattr(end_system_module, "Tensor", counted_tensor)

    history = trainer.train()
    return trainer, history, counts


def test_per_message_python_is_gone(counted_run, tiny_parts):
    trainer, history, counts = counted_run
    samples = sum(len(part) for part in tiny_parts)
    messages = EPOCHS * samples  # batch 1: one uplink and one downlink each
    log = trainer.transport.log
    # The run really was the per-message workload the guard is about.
    assert log.uplink_messages == log.downlink_messages == messages
    assert log.dropped_messages == 0 and log.nack_messages == 0
    assert len(history.records) == EPOCHS
    assert all(es.pending_batches == 0 for es in trainer.end_systems)
    assert sum(es.samples_seen for es in trainer.end_systems) == messages

    assert counts["payload_bytes"] == 0
    assert counts["normalize"] == len(trainer.end_systems)  # once per loader
    assert counts["normalized_samples"] == samples
    assert counts["client_tensors"] == 0


def test_message_kernel_call_overhead_on_a_200_client_pass(tiny_architecture, normalize,
                                                           monkeypatch):
    """The kernel's per-message calls on the ``fanout_async`` shape (200
    end-systems, batch 1, cut 0): ``_reply`` hands each server step's
    outcomes back as one list, not a generator, and ``Link.send`` builds
    its wire ``Message`` with every field given, so no default factory runs
    per send.  Both fail at ``96f113e``.  At cut 0 no end-system reads the
    boundary gradient, so a server step's four weighted layers run 4
    forward, 4 weight-gradient and 3 input-gradient GEMMs: 11, not the 12
    of ``e46580b``, whose first conv also differentiated the images."""
    clients = 200
    dataset = SyntheticCIFAR10(num_samples=2 * clients, image_size=8, seed=3)
    parts = IIDPartitioner(clients, seed=3).partition(dataset)
    trainer = SpatioTemporalTrainer(
        SplitSpec(tiny_architecture, client_blocks=0), parts,
        TrainingConfig(epochs=1, batch_size=1, mode="asynchronous", seed=0),
        train_transform=normalize)
    counts = Counter()

    reply = TrainingEngine._reply

    def counted_reply(self, *args, **kwargs):
        replies = reply(self, *args, **kwargs)
        counts["replies"] += 1
        counts["reply_lists"] += type(replies) is list
        return replies

    monkeypatch.setattr(TrainingEngine, "_reply", counted_reply)

    message = link_module.Message
    fields = dataclasses.fields(message)
    factory_fields = {field.name for field in fields
                      if field.default_factory is not dataclasses.MISSING}
    assert factory_fields  # the guard has something to guard

    def counted_message(*args, **kwargs):
        given = set(kwargs) | {field.name for field in fields[:len(args)]}
        counts["wire_messages"] += 1
        counts["default_factory_calls"] += len(factory_fields - given)
        return message(*args, **kwargs)

    monkeypatch.setattr(link_module, "Message", counted_message)

    with track() as delta:
        trainer.train()
    log = trainer.transport.log
    assert log.uplink_messages == log.downlink_messages == len(dataset)
    assert counts["replies"] == trainer.engine.stats.server_steps > 0
    assert len(trainer.server.model.parameters()) == 2 * 4
    assert delta["gemm_calls"] == 11 * trainer.engine.stats.server_steps
    assert counts["reply_lists"] == counts["replies"]
    assert counts["wire_messages"] == 2 * len(dataset)
    assert counts["default_factory_calls"] == 0


def test_the_bytes_charged_are_still_the_recursive_estimate(counted_run):
    """The sizes that skipped ``payload_bytes`` equal what it would have said."""
    trainer, _, _ = counted_run
    log = trainer.transport.log
    dtype_bytes = np.dtype(trainer.end_systems[0].forward_batch(
        np.zeros((1, 3, 8, 8)), np.zeros(1, dtype=np.int64)).activations.dtype).itemsize
    image_bytes = 3 * 8 * 8 * dtype_bytes
    assert log.uplink_bytes == log.uplink_messages * (image_bytes + 8 + 64)
    assert log.downlink_bytes == log.downlink_messages * image_bytes
