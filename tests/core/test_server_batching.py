"""Tests for batched server-side queue draining (CentralServer.process_batch).

The suite runs under the float64 precision policy (autouse fixture), so
the batched-vs-reference equivalence assertions below are tight: the
concatenated pass must reproduce the weighted-accumulation reference with
nothing beyond float64 round-off from BLAS blocking.
"""

from collections import Counter

import numpy as np
import pytest

import repro.core.server as server_module
import repro.utils.perf as perf_module
from repro.api.runtime import scale_architecture
from repro.core.config import TrainingConfig
from repro.core.messages import ActivationMessage
from repro.core.server import CentralServer, _segment_means
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.nn import Tensor
from repro.nn.dtype import default_dtype
from repro.nn.losses import get_loss
from repro.nn.metrics import accuracy
from repro.utils.perf import track


def make_messages(spec, count, batch_sizes=None, seed=0):
    """Random activation messages shaped like the tiny split's boundary."""
    rng = np.random.default_rng(seed)
    shape = spec.architecture.block_output_shape(spec.client_blocks)
    batch_sizes = batch_sizes or [4] * count
    messages = []
    for index, batch in enumerate(batch_sizes[:count]):
        messages.append(
            ActivationMessage(
                end_system_id=index % 3,
                batch_id=index,
                activations=rng.random((batch, *shape)),
                labels=rng.integers(0, 10, batch),
                arrival_time=float(index),
            )
        )
    return messages


def reference_batch_step(server, messages):
    """Accumulate per-message gradients of the sample-weighted mean loss,
    then take one optimizer step — the semantics process_batch must match."""
    total = sum(message.batch_size for message in messages)
    server.optimizer.zero_grad()
    sum_loss = get_loss("cross_entropy", reduction="sum")
    boundary = []
    losses = []
    for message in messages:
        smashed = Tensor(message.activations, requires_grad=True)
        logits = server.model(smashed)
        loss = sum_loss(logits, message.labels)
        loss.backward(np.asarray(1.0 / total))
        boundary.append(smashed.grad.copy())
        losses.append(float(loss.item()) / message.batch_size)
    server.optimizer.step()
    return boundary, losses


def reference_process(server, message):
    """Frozen copy of the per-message step ``CentralServer.process`` ran
    before it became ``process_batch([message])[0]``: the mean-reduced
    loss, one optimizer step, the boundary gradient copied out.  Returns
    ``(gradient, loss, accuracy)``."""
    smashed = Tensor(message.activations, requires_grad=True)
    logits = server.model(smashed)
    loss = server.loss_fn(logits, message.labels)

    server.optimizer.zero_grad()
    loss.backward()
    server.optimizer.step()

    server.batches_processed += 1
    server.samples_processed += message.batch_size

    boundary_gradient = smashed.grad
    if boundary_gradient is None:
        boundary_gradient = np.zeros_like(message.activations)
    return (boundary_gradient.copy(), float(loss.item()),
            accuracy(logits, message.labels))


def assert_same_bytes(left, right):
    assert left.dtype == right.dtype and left.shape == right.shape
    assert left.tobytes() == right.tobytes()


def assert_same_training_state(current, reference):
    """Weights, optimizer step count and every optimizer slot, byte for byte."""
    for key, value in reference.state_dict().items():
        assert_same_bytes(current.state_dict()[key], value)
    slots = reference.optimizer.state_dict()
    current_slots = current.optimizer.state_dict()
    assert current_slots["step_count"] == slots["step_count"]
    for name, buffers in slots["slots"].items():
        for left, right in zip(current_slots["slots"][name], buffers):
            assert_same_bytes(left, right)


class TestOneMessageStepPin:
    """``process`` (one message through ``process_batch``) is bit-identical
    to :func:`reference_process`: weights, optimizer slots, reply-gradient
    bytes, reported loss and accuracy, over three consecutive steps."""

    @pytest.mark.parametrize("scale, client_blocks", [
        ("paper", 1), ("laptop", 1), ("laptop", 2),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss", ["cross_entropy", "nll"])
    def test_process_matches_the_frozen_step(self, scale, client_blocks, dtype, loss):
        spec = SplitSpec(scale_architecture(scale), client_blocks=client_blocks)
        rng = np.random.default_rng(client_blocks)
        with default_dtype(dtype):
            current = CentralServer(spec, loss_name=loss, seed=11)
            frozen = CentralServer(spec, loss_name=loss, seed=11)
            for step, batch in enumerate([32, 28, 32]):
                message = ActivationMessage(
                    end_system_id=0, batch_id=step,
                    activations=rng.random((batch, *spec.smashed_shape)).astype(dtype),
                    labels=rng.integers(0, 10, batch),
                )
                reply = current.process(message)
                gradient, reported_loss, reported_accuracy = reference_process(
                    frozen, message)
                assert_same_bytes(reply.gradient, gradient)
                assert reply.loss == reported_loss
                assert reply.accuracy == reported_accuracy
        assert_same_training_state(current, frozen)
        assert frozen.optimizer.step_count == 3
        assert current.batches_processed == frozen.batches_processed
        assert current.samples_processed == frozen.samples_processed


class TestProcessBatchEquivalence:
    def test_matches_weighted_reference(self, tiny_split_spec):
        batched = CentralServer(tiny_split_spec, seed=7)
        reference = CentralServer(tiny_split_spec, seed=7)
        for a, b in zip(batched.model.parameters(), reference.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

        messages = make_messages(tiny_split_spec, count=3, batch_sizes=[4, 6, 2])
        replies = batched.process_batch(messages)
        ref_boundary, ref_losses = reference_batch_step(reference, messages)

        # Same boundary gradients per message...
        for reply, expected in zip(replies, ref_boundary):
            np.testing.assert_allclose(reply.gradient, expected, rtol=1e-9, atol=1e-12)
        # ...same per-message mean losses...
        for reply, expected in zip(replies, ref_losses):
            assert reply.loss == pytest.approx(expected, rel=1e-9)
        # ...and the same updated server weights.
        state_a = batched.state_dict()
        state_b = reference.state_dict()
        assert set(state_a) == set(state_b)
        for key in state_a:
            np.testing.assert_allclose(state_a[key], state_b[key], rtol=1e-9, atol=1e-12)

    def test_differs_from_sequential_multi_step(self, tiny_split_spec):
        """Sequential process() takes one optimizer step per message, so a
        multi-message drain is intentionally NOT equivalent to it."""
        batched = CentralServer(tiny_split_spec, seed=3)
        sequential = CentralServer(tiny_split_spec, seed=3)
        messages = make_messages(tiny_split_spec, count=3)
        batched.process_batch(messages)
        for message in messages:
            sequential.process(message)
        weights_a = batched.model.parameters()[0].data
        weights_b = sequential.model.parameters()[0].data
        assert not np.allclose(weights_a, weights_b)

    def test_single_message_batch_equals_process(self, tiny_split_spec):
        batched = CentralServer(tiny_split_spec, seed=5)
        sequential = CentralServer(tiny_split_spec, seed=5)
        message = make_messages(tiny_split_spec, count=1)[0]
        (batched_reply,) = batched.process_batch([message])
        sequential_reply = sequential.process(message)
        np.testing.assert_array_equal(batched_reply.gradient, sequential_reply.gradient)
        assert batched_reply.loss == pytest.approx(sequential_reply.loss)
        for key, value in batched.state_dict().items():
            np.testing.assert_array_equal(value, sequential.state_dict()[key])

    def test_empty_batch_is_a_no_op(self, tiny_split_spec):
        server = CentralServer(tiny_split_spec, seed=1)
        before = server.state_dict()
        assert server.process_batch([]) == []
        assert server.batches_processed == 0
        for key, value in server.state_dict().items():
            np.testing.assert_array_equal(value, before[key])


class TestProcessBatchAccounting:
    def test_counters_and_reply_alignment(self, tiny_split_spec):
        server = CentralServer(tiny_split_spec, seed=2)
        messages = make_messages(tiny_split_spec, count=4, batch_sizes=[2, 3, 4, 5])
        replies = server.process_batch(messages)
        assert server.batches_processed == 4
        assert server.samples_processed == 14
        assert [reply.batch_id for reply in replies] == [m.batch_id for m in messages]
        assert [reply.end_system_id for reply in replies] == [m.end_system_id for m in messages]
        for reply, message in zip(replies, messages):
            assert reply.gradient.shape == message.activations.shape
            assert np.isfinite(reply.loss)
            assert 0.0 <= reply.accuracy <= 1.0

    def test_process_pending_batch_respects_policy_order(self, tiny_split_spec):
        from repro.core.scheduling import StalenessPriorityPolicy

        server = CentralServer(tiny_split_spec, seed=2,
                               queue_policy=StalenessPriorityPolicy())
        messages = make_messages(tiny_split_spec, count=3)
        # Push newest-created first; the staleness policy must drain
        # oldest-created first regardless.
        for message, created in zip(messages, [5.0, 1.0, 3.0]):
            message.created_at = created
            server.receive(message)
        results = server.process_pending_batch(now=10.0)
        drained_created = [activation.created_at for activation, _ in results]
        assert drained_created == sorted(drained_created)
        assert not server.has_pending()


class TestReplyPath:
    """Each reply's wire gradient is what the per-message copy produced:
    ``boundary[start:stop].astype(dtype, order="C", copy=True)``."""

    @staticmethod
    def _replies_and_boundary(server, messages, staged, monkeypatch):
        smashed = []

        def recording_tensor(*args, **kwargs):
            tensor = Tensor(*args, **kwargs)
            smashed.append(tensor)
            return tensor

        monkeypatch.setattr(server_module, "Tensor", recording_tensor)
        replies = server.process_batch(messages, staged=staged)
        (boundary,) = [tensor.grad for tensor in smashed if tensor.requires_grad]
        return replies, boundary

    @staticmethod
    def _assert_parent_replies(replies, messages, boundary, segments):
        for reply, message, (start, stop) in zip(replies, messages, segments):
            expected = boundary[start:stop].astype(message.activations.dtype,
                                                   order="C", copy=True)
            assert reply.gradient.dtype == expected.dtype
            assert reply.gradient.shape == expected.shape
            assert reply.gradient.flags.c_contiguous
            assert reply.gradient.tobytes() == expected.tobytes()
            assert reply.size_bytes == expected.nbytes

    def test_staged_drain(self, tiny_split_spec, monkeypatch):
        from repro.core.scheduling import StalenessPriorityPolicy

        server = CentralServer(tiny_split_spec, seed=4,
                               queue_policy=StalenessPriorityPolicy())
        messages = make_messages(tiny_split_spec, count=5, batch_sizes=[2, 1, 3, 1, 2])
        # Drained oldest-created first: not the staging order, so the
        # segments into the arena view are out of order.
        for message, created in zip(messages, [4.0, 0.0, 3.0, 1.0, 2.0]):
            message.created_at = created
            server.receive(message)
        drained = server.queue.drain(now=10.0)
        staged = server.arena.gather(drained)
        assert staged is not None
        assert staged.segments != sorted(staged.segments)
        replies, boundary = self._replies_and_boundary(server, drained, staged, monkeypatch)
        # The boundary of a 4-channel conv input is not C-contiguous.
        assert not boundary.flags.c_contiguous
        self._assert_parent_replies(replies, drained, boundary, staged.segments)

    def test_concatenated_drain_with_ragged_dtypes(self, tiny_split_spec, monkeypatch):
        server = CentralServer(tiny_split_spec, seed=4, use_arena=False)
        messages = make_messages(tiny_split_spec, count=3, batch_sizes=[3, 1, 2])
        messages[1].activations = messages[1].activations.astype(np.float32)
        replies, boundary = self._replies_and_boundary(server, messages, None, monkeypatch)
        assert boundary.dtype == np.float64 and replies[1].gradient.dtype == np.float32
        self._assert_parent_replies(replies, messages, boundary, [(0, 3), (3, 4), (4, 6)])


def input_gradient_tensor(data, requires_grad=False, **kwargs):
    """``Tensor`` as the server step built its input before cut 0 stopped
    computing the boundary gradient: it always asks for a gradient."""
    return Tensor(data, requires_grad=True, **kwargs)


def counted(step, monkeypatch, *, input_gradient=False):
    """``(step(), counter deltas, Counter of workspace tags requested)``.  With
    ``input_gradient`` the server's input asks for a gradient whatever the cut."""
    tags = Counter()
    get = perf_module.WorkspaceCache.get

    def recording_get(self, tag, shape, dtype):
        tags[tag] += 1
        return get(self, tag, shape, dtype)

    with monkeypatch.context() as patch:
        patch.setattr(perf_module.WorkspaceCache, "get", recording_get)
        if input_gradient:
            patch.setattr(server_module, "Tensor", input_gradient_tensor)
        with track() as delta:
            result = step()
    return result, delta, tags


class TestBoundaryGradientOnlyWhenRead:
    """At cut 0 no end-system back-propagates the reply, so the server step
    computes no boundary gradient: one GEMM fewer than a twin whose input
    still asks for one, none of the first conv's input-gradient workspaces,
    zero replies of each message's shape and dtype, and otherwise
    byte-identical training.  Every engine golden runs at cut 1, so these
    counts pin cut 0."""

    DRAINS = ("one_message", "concatenated", "arena")

    @staticmethod
    def _drain(server, messages, drain):
        if drain == "one_message":
            return [server.process(messages[0])]
        if drain == "concatenated":
            return server.process_batch(messages)
        for message in messages:
            server.receive(message)
        return [reply for _, reply in server.process_pending_batch(now=10.0)]

    def _twin_steps(self, spec, drain, dtype, monkeypatch):
        """The drain on a server and on its input-gradient twin:
        ``(messages, (replies, deltas, tags) per side)``."""
        with default_dtype(dtype):
            messages = make_messages(spec, count=3, batch_sizes=[3, 1, 2], seed=9)
            for message in messages:
                message.activations = message.activations.astype(dtype)
            if drain == "concatenated":
                # Ragged traffic: a reply keeps its own message's dtype.
                messages[1].activations = messages[1].activations.astype(np.float16)
            current = CentralServer(spec, seed=6)
            twin = CentralServer(spec, seed=6)
            sides = [counted(lambda: self._drain(current, messages, drain), monkeypatch),
                     counted(lambda: self._drain(twin, messages, drain), monkeypatch,
                             input_gradient=True)]
        if drain == "arena":
            assert all(delta["arena_gather_zero_copy"] == 1 for _, delta, _ in sides)
        assert_same_training_state(current, twin)
        replies, twin_replies = sides[0][0], sides[1][0]
        for reply, twin_reply in zip(replies, twin_replies):
            assert (reply.loss, reply.accuracy) == (twin_reply.loss, twin_reply.accuracy)
        return messages[:len(replies)], sides

    @pytest.mark.parametrize("drain", DRAINS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cut_zero_replies_zeros_without_the_input_gradient(self, tiny_architecture,
                                                               drain, dtype, monkeypatch):
        spec = SplitSpec(tiny_architecture, client_blocks=0)
        messages, ((replies, delta, tags), (twin_replies, twin_delta, twin_tags)) = (
            self._twin_steps(spec, drain, dtype, monkeypatch))
        assert delta["gemm_calls"] == twin_delta["gemm_calls"] - 1
        # The twin's first conv alone also requests its patch-gradient GEMM
        # output and the channel-major copy of it (3 input channels); the
        # 4-channel L2 still folds channel-major on both sides.
        assert twin_tags - tags == Counter({"conv2d.grad_cols": 1, "conv2d.grad_cols_t": 1})
        assert not tags - twin_tags
        for reply, twin_reply, message in zip(replies, twin_replies, messages):
            gradient = reply.gradient
            assert gradient.shape == message.activations.shape
            assert gradient.dtype == message.activations.dtype
            assert gradient.flags.c_contiguous
            assert not gradient.any() and twin_reply.gradient.any()
            assert reply.size_bytes == twin_reply.size_bytes == message.activations.nbytes

    @pytest.mark.parametrize("drain", DRAINS)
    def test_cut_one_still_replies_the_boundary_gradient(self, tiny_split_spec, drain,
                                                         monkeypatch):
        _, ((replies, delta, tags), (twin_replies, twin_delta, twin_tags)) = self._twin_steps(
            tiny_split_spec, drain, np.float64, monkeypatch)
        assert delta["gemm_calls"] == twin_delta["gemm_calls"]
        assert tags == twin_tags and tags["conv2d.grad_cols"] > 0
        for reply, twin_reply in zip(replies, twin_replies):
            assert_same_bytes(reply.gradient, twin_reply.gradient)
            assert reply.size_bytes == twin_reply.size_bytes

    @pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
    def test_cut_zero_run_matches_its_input_gradient_twin(self, tiny_architecture,
                                                          tiny_parts, normalize, mode,
                                                          monkeypatch):
        """A whole cut-0 run reaches the twin's weights, engine counters,
        traffic ledger and clock, one GEMM fewer per server step."""
        def run(input_gradient):
            trainer = SpatioTemporalTrainer(
                SplitSpec(tiny_architecture, client_blocks=0), tiny_parts,
                TrainingConfig.fast_debug(
                    mode=mode, epochs=2,
                    max_in_flight=2 if mode == "asynchronous" else 1),
                train_transform=normalize)
            history, delta, _ = counted(trainer.train, monkeypatch,
                                        input_gradient=input_gradient)
            return trainer, history, delta

        trainer, history, delta = run(False)
        twin, twin_history, twin_delta = run(True)
        steps = trainer.engine.stats.server_steps
        assert steps > 0
        assert delta["gemm_calls"] == twin_delta["gemm_calls"] - steps
        assert_same_training_state(trainer.server, twin.server)
        assert trainer.engine.stats == twin.engine.stats
        assert trainer.transport.log.summary() == twin.transport.log.summary()
        assert trainer.engine.clock == twin.engine.clock
        assert ([(r.train_loss, r.train_accuracy) for r in history.records]
                == [(r.train_loss, r.train_accuracy) for r in twin_history.records])


class TestSegmentMeans:
    def _per_segment(self, values, segments):
        values = values.astype(np.float64) if values.dtype == np.bool_ else values
        return [float(values[start:stop].mean()) if stop > start else 0.0
                for start, stop in segments]

    @pytest.mark.parametrize("segments", [
        [(0, 2), (2, 3), (3, 6)],            # tiling, in order
        [(3, 6), (0, 2), (2, 3)],            # tiling, out of order
        [(0, 2), (2, 2), (2, 6)],            # an empty segment
        [(1, 3), (3, 6)],                    # not from row 0
        [(0, 2), (3, 6)],                    # a gap
        [],
    ])
    @pytest.mark.parametrize("kind", ["float", "bool", "rows"])
    def test_matches_per_segment_means(self, segments, kind, rng):
        values = {"float": rng.standard_normal(6), "bool": rng.random(6) < 0.5,
                  "rows": rng.standard_normal((6, 2, 3))}[kind]
        means = _segment_means(values, segments)
        expected = self._per_segment(values, segments)
        if kind == "rows":
            # A tiling sums multi-element rows first, then rows per segment.
            assert means == pytest.approx(expected, rel=1e-14, abs=0.0)
        else:
            assert means == expected
        assert all(type(mean) is float for mean in means)


class TestTrainerIntegration:
    @pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
    @pytest.mark.parametrize("server_batching", [True, False])
    def test_full_epoch_processes_every_sample(self, tiny_split_spec, tiny_parts,
                                               normalize, mode, server_batching):
        config = TrainingConfig.fast_debug(
            mode=mode, server_batching=server_batching,
            max_in_flight=2 if mode == "asynchronous" else 1,
        )
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts, config,
                                        train_transform=normalize)
        history = trainer.train()
        total = sum(len(part) for part in tiny_parts)
        assert trainer.server.samples_processed == total
        assert all(es.pending_batches == 0 for es in trainer.end_systems)
        assert np.isfinite(history.records[0].train_loss)

    def test_batched_sync_round_takes_one_server_step(self, tiny_split_spec,
                                                      tiny_parts, normalize):
        config = TrainingConfig.fast_debug(server_batching=True)
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts, config,
                                        train_transform=normalize)
        trainer.train()
        # Every message is still accounted for individually...
        expected_messages = sum(
            -(-len(part) // config.batch_size) for part in tiny_parts
        )
        assert trainer.server.batches_processed == expected_messages
        # ...but the optimizer stepped once per round, not once per message.
        rounds = max(-(-len(part) // config.batch_size) for part in tiny_parts)
        assert trainer.server.optimizer.step_count == rounds

    def test_flag_off_reproduces_per_message_steps(self, tiny_split_spec,
                                                   tiny_parts, normalize):
        config = TrainingConfig.fast_debug(server_batching=False)
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts, config,
                                        train_transform=normalize)
        trainer.train()
        assert trainer.server.optimizer.step_count == trainer.server.batches_processed
