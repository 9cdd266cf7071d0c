"""One wire size per message, fixed where the payload is formed.

Before the scheduler fast path a delivered ``ActivationMessage`` was
re-stamped with the link's figure (arrays + 64 B of dictionary framing)
while a lost one kept ``activations.nbytes + labels.nbytes``: two sizes for
one message.  Now ``size_bytes`` is set once at construction and is the
figure the link, the traffic log and the transfer-time formula all use.
"""

import numpy as np
import pytest

from repro.core.compression import TopKSparsifier, Uint8Quantizer
from repro.core.config import TrainingConfig
from repro.core.messages import ActivationMessage, GradientMessage
from repro.core.trainer import SpatioTemporalTrainer
from repro.nn.dtype import default_dtype
from repro.simnet.link import payload_bytes


def legacy_uplink_payload(message):
    """The wire form ``_uplink`` used to build (and size) per send."""
    return {"activations": message.activations, "labels": message.labels}


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def trainer(request, tiny_split_spec, tiny_parts):
    with default_dtype(request.param):
        built = SpatioTemporalTrainer(
            tiny_split_spec, tiny_parts,
            TrainingConfig.fast_debug(mode="asynchronous"))
        built.wire_dtype = np.dtype(request.param)
        yield built


def make_batch(batch_size):
    rng = np.random.default_rng(batch_size)
    return rng.random((batch_size, 3, 8, 8)), rng.integers(0, 10, size=batch_size)


@pytest.mark.parametrize("batch_size", [1, 32])
class TestOneSizePerMessage:
    def test_uplink_delivered_and_lost_carry_the_charged_figure(self, trainer, batch_size):
        engine, log = trainer.engine, trainer.transport.log
        end_system = trainer.end_systems[0]
        link = trainer.topology.uplink(end_system.node_name)

        before = (log.uplink_bytes, link.bytes_sent)
        delivered, arrivals, lost_at = engine._uplink(end_system, make_batch(batch_size), 0.0)
        assert lost_at is None and len(arrivals) == 1
        assert delivered.activations.dtype == trainer.wire_dtype
        assert delivered.size_bytes == log.uplink_bytes - before[0]
        assert delivered.size_bytes == link.bytes_sent - before[1]
        assert delivered.size_bytes == payload_bytes(legacy_uplink_payload(delivered))
        assert delivered.size_bytes == (
            delivered.activations.nbytes + delivered.labels.nbytes + 64)
        # The transfer time was computed from the same figure.
        assert arrivals[0] == pytest.approx(link.expected_transfer_time(delivered.size_bytes))

        trainer.topology.set_node_up(trainer.topology.hub_of(end_system.node_name), False)
        lost, arrivals, lost_at = engine._uplink(end_system, make_batch(batch_size), 1.0)
        assert arrivals == [] and lost_at == 1.0
        assert log.uplink_dropped == 1
        assert lost.size_bytes == delivered.size_bytes  # the lost twin: same size
        assert lost.size_bytes == payload_bytes(legacy_uplink_payload(lost))

    def test_gradient_leg_likewise(self, trainer, batch_size):
        engine, log = trainer.engine, trainer.transport.log
        end_system = trainer.end_systems[1]
        link = trainer.topology.downlink(end_system.node_name)
        gradient = GradientMessage(end_system.system_id, 0,
                                   np.ones((batch_size, 4, 4, 4), dtype=trainer.wire_dtype))
        assert gradient.size_bytes == payload_bytes(gradient.gradient) == gradient.gradient.nbytes

        arrivals, lost_at = engine._downlink(end_system, gradient, 0.0)
        assert lost_at is None
        assert log.downlink_bytes == link.bytes_sent == gradient.size_bytes
        assert arrivals[0] == pytest.approx(link.expected_transfer_time(gradient.size_bytes))

        trainer.topology.set_node_up(trainer.topology.hub_of(end_system.node_name), False)
        arrivals, lost_at = engine._downlink(end_system, gradient, 1.0)
        assert arrivals == [] and lost_at == 1.0
        assert log.downlink_bytes == gradient.size_bytes  # nothing charged for the loss


def test_retransmissions_reuse_the_one_size(tiny_split_spec, tiny_parts):
    trainer = SpatioTemporalTrainer(
        tiny_split_spec, tiny_parts,
        TrainingConfig.fast_debug(mode="asynchronous", reliable_delivery=True,
                                  retry_max=3, retry_timeout_s=0.05))
    sizes = []
    send = trainer.transport.send_to_server

    def recording_send(node, payload, **kwargs):
        sizes.append((kwargs["size"], payload_bytes(payload)))
        return None if len(sizes) < 3 else send(node, payload, **kwargs)

    trainer.transport.send_to_server = recording_send
    message, arrivals, lost_at = trainer.engine._uplink(
        trainer.end_systems[0], make_batch(8), 0.0)
    assert lost_at is None and len(arrivals) == 1
    assert sizes == [(message.size_bytes, message.size_bytes)] * 3


def test_an_explicit_size_is_kept_and_payload_is_the_wire_form():
    message = ActivationMessage(0, 0, np.zeros((2, 3)), np.zeros(2), size_bytes=999)
    assert message.size_bytes == 999
    assert set(message.payload) == {"activations", "labels"}
    assert message.payload["activations"] is message.activations
    assert message.payload["labels"] is message.labels


@pytest.mark.parametrize("batch_size", [1, 32])
def test_a_codec_sets_the_charged_size(trainer, batch_size):
    """The encoding end-system fixes the compressed size; links, log and timing use it."""
    engine, log = trainer.engine, trainer.transport.log
    end_system = trainer.end_systems[0]
    link = trainer.topology.uplink(end_system.node_name)
    end_system.codec = Uint8Quantizer()
    message, arrivals, _ = engine._uplink(end_system, make_batch(batch_size), 0.0)
    assert message.activations.dtype == trainer.wire_dtype
    assert message.size_bytes == (message.activations.size + 16
                                  + message.labels.nbytes + 64)
    assert message.size_bytes == log.uplink_bytes == link.bytes_sent
    assert arrivals[0] == pytest.approx(link.expected_transfer_time(message.size_bytes))

    end_system.codec = TopKSparsifier(keep_fraction=0.25)
    message, _, _ = engine._uplink(end_system, make_batch(batch_size), 1.0)
    keep = round(message.activations.size * 0.25)
    assert message.size_bytes == (keep * (trainer.wire_dtype.itemsize + 4)
                                  + message.labels.nbytes + 64)
