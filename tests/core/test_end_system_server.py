"""Tests for the EndSystem and CentralServer halves of the split network."""

import numpy as np
import pytest

from repro.core.end_system import EndSystem
from repro.core.messages import GradientMessage
from repro.core.scheduling import StalenessPriorityPolicy
from repro.core.server import CentralServer
from repro.core.split import SplitSpec
from repro.data.loader import DataLoader


@pytest.fixture
def end_system(tiny_split_spec, tiny_parts):
    loader = DataLoader(tiny_parts[0], batch_size=8, shuffle=True, seed=0)
    return EndSystem(0, loader, tiny_split_spec, optimizer_kwargs={"lr": 1e-3}, seed=11)


@pytest.fixture
def server(tiny_split_spec):
    return CentralServer(tiny_split_spec, optimizer_kwargs={"lr": 1e-3}, seed=22)


class TestEndSystem:
    def test_properties(self, end_system, tiny_parts):
        assert end_system.node_name == "end_system_0"
        assert end_system.has_trainable_parameters
        assert end_system.num_local_samples == len(tiny_parts[0])
        assert end_system.pending_batches == 0

    def test_forward_batch_produces_detached_activations(self, end_system, rng):
        images = rng.random((8, 3, 8, 8))
        labels = rng.integers(0, 10, 8)
        message = end_system.forward_batch(images, labels, created_at=1.0)
        assert message.activations.shape == (8, *end_system.split_spec.smashed_shape)
        assert message.created_at == 1.0
        assert message.batch_size == 8
        assert end_system.pending_batches == 1
        # The message holds a copy, not the live tensor data.
        message.activations[:] = 0.0
        assert end_system._pending[message.batch_id].data.any()

    def test_batch_ids_increment(self, end_system, rng):
        images = rng.random((4, 3, 8, 8))
        labels = rng.integers(0, 10, 4)
        first = end_system.forward_batch(images, labels)
        second = end_system.forward_batch(images, labels)
        assert second.batch_id == first.batch_id + 1

    def test_apply_gradient_updates_parameters(self, end_system, rng):
        images = rng.random((8, 3, 8, 8))
        labels = rng.integers(0, 10, 8)
        message = end_system.forward_batch(images, labels)
        weights_before = end_system.model["L1_conv"].weight.data.copy()
        gradient = GradientMessage(0, message.batch_id, rng.random(message.activations.shape))
        end_system.apply_gradient(gradient)
        assert not np.allclose(end_system.model["L1_conv"].weight.data, weights_before)
        assert end_system.pending_batches == 0
        assert end_system.updates_applied == 1

    def test_apply_gradient_unknown_batch(self, end_system, rng):
        with pytest.raises(KeyError, match="pending batch"):
            end_system.apply_gradient(GradientMessage(0, 999, rng.random((1, 4, 4, 4))))

    def test_apply_gradient_wrong_system(self, end_system, rng):
        images = rng.random((4, 3, 8, 8))
        message = end_system.forward_batch(images, rng.integers(0, 10, 4))
        with pytest.raises(ValueError, match="end-system"):
            end_system.apply_gradient(
                GradientMessage(5, message.batch_id, rng.random(message.activations.shape))
            )

    def test_apply_gradient_shape_mismatch(self, end_system, rng):
        images = rng.random((4, 3, 8, 8))
        message = end_system.forward_batch(images, rng.integers(0, 10, 4))
        with pytest.raises(ValueError, match="shape"):
            end_system.apply_gradient(GradientMessage(0, message.batch_id, np.zeros((1, 1))))

    def test_discard_pending(self, end_system, rng):
        images = rng.random((4, 3, 8, 8))
        labels = rng.integers(0, 10, 4)
        first = end_system.forward_batch(images, labels)
        end_system.forward_batch(images, labels)
        assert end_system.discard_pending(first.batch_id) == 1
        assert end_system.discard_pending() == 1
        assert end_system.pending_batches == 0

    def test_cut_zero_end_system_has_no_parameters(self, tiny_architecture, tiny_parts, rng):
        spec = SplitSpec(tiny_architecture, client_blocks=0)
        loader = DataLoader(tiny_parts[0], batch_size=8, seed=0)
        system = EndSystem(0, loader, spec, seed=0)
        assert not system.has_trainable_parameters
        images = rng.random((4, 3, 8, 8))
        message = system.forward_batch(images, rng.integers(0, 10, 4))
        np.testing.assert_allclose(message.activations, images)
        # Applying a gradient is a harmless no-op.
        system.apply_gradient(GradientMessage(0, message.batch_id, np.zeros_like(images)))
        assert system.updates_applied == 0

    def test_forward_inference_has_no_side_effects(self, end_system, rng):
        out = end_system.forward_inference(rng.random((4, 3, 8, 8)))
        assert out.shape == (4, *end_system.split_spec.smashed_shape)
        assert end_system.pending_batches == 0

    def test_state_dict_roundtrip(self, end_system, tiny_split_spec, tiny_parts):
        loader = DataLoader(tiny_parts[1], batch_size=8, seed=1)
        other = EndSystem(1, loader, tiny_split_spec, seed=99)
        other.load_state_dict(end_system.state_dict())
        np.testing.assert_allclose(
            other.model["L1_conv"].weight.data, end_system.model["L1_conv"].weight.data
        )

    def test_batches_iterator(self, end_system):
        batches = list(end_system.batches(epoch=0))
        assert sum(images.shape[0] for images, _ in batches) == end_system.num_local_samples

    def test_repr(self, end_system):
        assert "EndSystem(id=0" in repr(end_system)


class TestCentralServer:
    def test_process_returns_gradient_and_metrics(self, server, end_system, rng):
        images = rng.random((8, 3, 8, 8))
        labels = rng.integers(0, 10, 8)
        message = end_system.forward_batch(images, labels)
        gradient = server.process(message)
        assert gradient.gradient.shape == message.activations.shape
        assert gradient.loss > 0
        assert 0.0 <= gradient.accuracy <= 1.0
        assert gradient.end_system_id == 0
        assert server.batches_processed == 1
        assert server.samples_processed == 8

    def test_process_updates_server_parameters(self, server, end_system, rng):
        images = rng.random((8, 3, 8, 8))
        message = end_system.forward_batch(images, rng.integers(0, 10, 8))
        before = server.model["output"].weight.data.copy()
        server.process(message)
        assert not np.allclose(server.model["output"].weight.data, before)

    def test_queue_integration(self, server, end_system, rng):
        images = rng.random((4, 3, 8, 8))
        for _ in range(3):
            assert server.receive(end_system.forward_batch(images, rng.integers(0, 10, 4)))
        assert server.has_pending()
        processed = []
        while server.has_pending():
            message, _ = server.process_next(now=0.0)
            processed.append(message.batch_id)
        assert sorted(processed) == [0, 1, 2]

    @pytest.mark.parametrize("drain", ["process_next", "process_pending_batch"])
    def test_wire_payloads_are_c_contiguous_nchw(self, server, end_system, rng, drain):
        # Inside the segments activations and gradients are channels-last in
        # memory; what crosses the wire keeps the NCHW byte order, so payload
        # bytes and the compression input do not depend on the op layout.
        images = rng.random((4, 3, 8, 8))
        for _ in range(2):
            message = end_system.forward_batch(images, rng.integers(0, 10, 4))
            assert message.activations.flags.c_contiguous
            assert message.activations.shape == (4, *end_system.split_spec.smashed_shape)
            server.receive(message)
        if drain == "process_next":
            replies = [server.process_next(now=0.0)[1] for _ in range(2)]
        else:
            replies = [reply for _, reply in server.process_pending_batch(now=0.0)]
        assert len(replies) == 2
        for reply in replies:
            assert reply.gradient.flags.c_contiguous
            assert reply.gradient.shape == message.activations.shape
            end_system.apply_gradient(reply)

    def test_predict_and_evaluate(self, server, end_system, rng):
        images = rng.random((6, 3, 8, 8))
        labels = rng.integers(0, 10, 6)
        smashed = end_system.forward_inference(images)
        logits = server.predict(smashed)
        assert logits.shape == (6, 10)
        metrics = server.evaluate(smashed, labels)
        assert set(metrics) == {"loss", "accuracy"}
        assert metrics["loss"] > 0

    def test_evaluation_does_not_touch_parameters(self, server, end_system, rng):
        smashed = end_system.forward_inference(rng.random((4, 3, 8, 8)))
        before = server.state_dict()
        server.evaluate(smashed, rng.integers(0, 10, 4))
        after = server.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key])

    def test_custom_queue_policy_is_used(self, tiny_split_spec):
        server = CentralServer(tiny_split_spec, queue_policy=StalenessPriorityPolicy(), seed=0)
        assert isinstance(server.queue.policy, StalenessPriorityPolicy)

    def test_all_layers_on_clients_rejected(self, tiny_architecture):
        # A cut that leaves the server without parameters is unsupported:
        # the dense head always stays on the server, so this requires a
        # degenerate architecture; emulate it by splitting past every layer.
        spec = SplitSpec(tiny_architecture, client_blocks=tiny_architecture.num_blocks)
        # Even at the deepest cut the server still has the dense layers, so
        # construction must succeed.
        CentralServer(spec, seed=0)

    def test_state_dict_roundtrip(self, server, tiny_split_spec):
        other = CentralServer(tiny_split_spec, seed=123)
        other.load_state_dict(server.state_dict())
        np.testing.assert_allclose(
            other.model["output"].weight.data, server.model["output"].weight.data
        )

    def test_repr(self, server):
        assert "CentralServer" in repr(server)
