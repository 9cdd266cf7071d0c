"""Centralized server: the upper half of the split network.

The server holds every layer *after* the cut (the remaining ``Conv2D`` /
``MaxPooling2D`` blocks, the dense layers and the output layer), a single
optimizer for those parameters, and the parameter-scheduling queue that
absorbs activations arriving from geo-distributed end-systems.

Because one shared server segment is trained on the activations of every
end-system, "all training data is used for single deep neural network
training" (the paper's phrase) even though no raw data is ever uploaded.

Zero-copy batched drains
------------------------
With the activation arena enabled (the default), :meth:`receive` copies
each admitted payload into a preallocated shape bucket
(:class:`repro.utils.arena.ActivationArena`) at enqueue time, so
:meth:`process_pending_batch` trains on one contiguous **view** of the
arena instead of rebuilding the batch with ``np.concatenate`` on the
latency-critical drain.  Ragged traffic or partially-popped buckets fall
back to concatenation with identical semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Sequential, Tensor, no_grad
from ..nn.losses import Loss, get_loss
from ..nn.metrics import accuracy
from ..nn.optim import Optimizer, get_optimizer
from ..utils.arena import ActivationArena, GatheredBatch
from .messages import ActivationMessage, GradientMessage
from .scheduling import ParameterQueue, SchedulingPolicy
from .split import SplitSpec

__all__ = ["CentralServer"]


def _segment_means(values: np.ndarray, segments: List[Tuple[int, int]]) -> List[float]:
    """Mean of ``values`` rows over each ``(start, stop)`` segment.

    When two or more segments tile ``values`` in increasing order (every
    batched drain: cumulative offsets or a contiguous arena span) the
    means come from a single ``np.add.reduceat`` over the flattened rows;
    otherwise each segment is averaged individually — a lone segment
    with ``np.mean``, the pairwise sum the mean-reduced loss and
    :func:`~repro.nn.metrics.accuracy` use (``reduceat`` sums in order
    and rounds differently).  Multi-dimensional rows average over all of
    a segment's elements, exactly like a mean over the slice.
    """
    if values.dtype == np.bool_:
        # reduceat over bool would OR instead of count.
        values = values.astype(np.float64)
    flat = values.reshape(values.shape[0], -1) if values.ndim > 1 else values
    row_width = flat.shape[1] if values.ndim > 1 else 1
    bounds = np.array(segments, dtype=np.int64).reshape(-1, 2)
    starts, stops = bounds[:, 0], bounds[:, 1]
    monotone = (
        len(bounds) > 1
        and starts[0] == 0
        and stops[-1] == values.shape[0]
        and np.array_equal(stops[:-1], starts[1:])
        and bool((stops > starts).all())
    )
    if monotone:
        sums = np.add.reduceat(flat.sum(axis=1) if values.ndim > 1 else flat, starts)
        counts = ((stops - starts) * row_width).astype(np.float64)
        return (sums / counts).tolist()
    return [
        float(flat[start:stop].mean()) if stop > start else 0.0
        for start, stop in segments
    ]


class CentralServer:
    """The single centralized server shared by all end-systems.

    Parameters
    ----------
    split_spec:
        Architecture/cut description (must match the end-systems').
    optimizer_name / optimizer_kwargs:
        Optimizer for the server segment's parameters.
    loss_name:
        Loss computed on the server side (``cross_entropy`` for the
        paper's classification task).
    queue_policy:
        Scheduling policy instance for the arrival queue; defaults to FIFO.
    use_arena:
        Stage admitted payloads into the activation arena at enqueue
        time so batched drains are zero-copy (default ``True``).
    seed:
        Seed for the server segment's weight initialization.
    """

    def __init__(
        self,
        split_spec: SplitSpec,
        optimizer_name: str = "adam",
        optimizer_kwargs: Optional[Dict] = None,
        loss_name: str = "cross_entropy",
        queue_policy: Optional[SchedulingPolicy] = None,
        max_queue_size: Optional[int] = None,
        use_arena: bool = True,
        *,
        seed: int,
    ) -> None:
        self.split_spec = split_spec
        self.model: Sequential = split_spec.build_server_segment(seed=seed)
        if not self.model.parameters():
            raise ValueError(
                "the server segment has no trainable parameters; the cut places "
                "every layer on the end-systems, which the framework does not support"
            )
        optimizer_kwargs = dict(optimizer_kwargs or {"lr": 1e-3})
        self.optimizer: Optimizer = get_optimizer(
            optimizer_name, self.model.parameters(), **optimizer_kwargs
        )
        self.loss_fn: Loss = get_loss(loss_name)
        # Per-sample (reduction="none") twin of the configured loss, used
        # to report every message's loss from one vectorised pass over
        # the union batch instead of one loss call per message.
        self._per_sample_loss: Loss = get_loss(loss_name, reduction="none")
        self.queue = ParameterQueue(policy=queue_policy, max_size=max_queue_size)
        self.arena: Optional[ActivationArena] = ActivationArena() if use_arena else None
        self.batches_processed = 0
        self.samples_processed = 0
        # Every activation sequence this server has ever ruled on
        # (admitted *or* rejected) — the idempotent-receiver side of
        # reliable delivery: a retransmitted or chaos-duplicated copy of
        # a known sequence is deduplicated instead of re-admitted.
        self._seen_sequences: set = set()

    # ------------------------------------------------------------------ #
    # Queue interface
    # ------------------------------------------------------------------ #
    def receive(self, message: ActivationMessage) -> bool:
        """Push an arriving activation message into the scheduling queue.

        Admitted payloads are also staged into the activation arena, so
        the eventual batched drain is a zero-copy view.  Returns
        ``False`` when a bounded queue is full and the message was
        dropped — the caller **must** propagate that verdict back to the
        originating end-system (``EndSystem.notify_drop``), otherwise the
        client's pending activation leaks forever.
        """
        admitted = self.queue.push(message)
        if admitted and self.arena is not None:
            self.arena.stage(message)
        return admitted

    def admit(self, message: ActivationMessage) -> bool:
        """Remember ``message.sequence``, then :meth:`receive` it.

        The idempotent-receiver side of reliable delivery: the engine asks
        :meth:`has_seen` first and absorbs a known sequence as a
        duplicate (a retransmitted copy after a spurious timeout, or a
        chaos-duplicated uplink message) before calling this.  The
        sequence is remembered whatever :meth:`receive` rules, so a later
        copy of a *rejected* sequence is deduplicated too and never
        triggers a second NACK.  Returns :meth:`receive`'s verdict.
        """
        self._seen_sequences.add(message.sequence)
        return self.receive(message)

    def has_seen(self, sequence: int) -> bool:
        """Whether :meth:`admit` has already taken ``sequence``."""
        return sequence in self._seen_sequences

    def has_pending(self) -> bool:
        """True when the queue holds unprocessed messages."""
        return bool(self.queue)

    # ------------------------------------------------------------------ #
    # Training step
    # ------------------------------------------------------------------ #
    def process(self, message: ActivationMessage) -> GradientMessage:
        """Train on one activation message: :meth:`process_batch` of one."""
        return self.process_batch([message])[0]

    def process_next(self, now: float) -> Tuple[ActivationMessage, GradientMessage]:
        """Pop the next message according to the scheduling policy and train on it."""
        message = self.queue.pop(now)
        if self.arena is not None:
            self.arena.discard(message)
        return message, self.process(message)

    def process_batch(
        self,
        messages: Sequence[ActivationMessage],
        staged: Optional[GatheredBatch] = None,
    ) -> List[GradientMessage]:
        """Train on activation messages in one step; the boundary gradients back.

        The messages' activations are stacked into one batch (a single
        message trains on its own arrays, no copy), the server segment
        runs **one** forward/backward over the union, and a single
        optimizer step is taken on the mean loss over all samples.  The
        boundary gradient is then scattered back per message, so each
        end-system receives the gradient slice for exactly the samples it
        contributed (scaled by ``n_i / N`` relative to a step on its
        message alone, as in any large-batch step).  This is the only
        training step: :meth:`process` is the one-message call, which is
        how the per-message path still takes one optimizer step per
        message.

        At cut 0 (``split_spec.client_blocks == 0``) no end-system has a
        layer to back-propagate the reply through, so the boundary
        gradient is not computed: the first server layer runs no
        input-gradient GEMM, and each reply is zeros with its message's
        shape and dtype — the same wire bytes as the real gradient.

        The per-message losses/accuracies reported in the returned
        :class:`GradientMessage` objects are averaged over each message's
        rows of the per-sample loss and arg-max hits; a lone message's are
        plain ``np.mean`` values, exactly what the mean-reduced loss and
        :func:`~repro.nn.metrics.accuracy` give.

        Equivalence: at float64, ``process_batch(messages)`` matches a
        reference that accumulates the per-message gradients of the
        sample-weighted mean loss and applies one optimizer step (see
        ``tests/core/test_server_batching.py``).  It intentionally differs
        from *sequential* :meth:`process` calls, which take one optimizer
        step per message.
        """
        if not messages:
            return []

        if staged is not None:
            # Zero-copy drain: the union batch already lives contiguously
            # in the arena (copied there at enqueue time), in staging
            # order.  The loss over the union is permutation-invariant
            # and each message keeps its own row segment, so semantics
            # match the concatenate path to round-off.
            activations = staged.activations
            labels = staged.labels
            segments = staged.segments
        elif len(messages) == 1:
            activations = messages[0].activations
            labels = messages[0].labels
            segments = [(0, messages[0].batch_size)]
        else:
            activations = np.concatenate(
                [message.activations for message in messages], axis=0
            )
            labels = np.concatenate([message.labels for message in messages], axis=0)
            segments = []
            offset = 0
            for message in messages:
                segments.append((offset, offset + message.batch_size))
                offset += message.batch_size
        # Only an end-system with layers of its own reads the boundary
        # gradient (see the docstring on cut 0).
        smashed = Tensor(activations, requires_grad=self.split_spec.client_blocks > 0)
        logits = self.model(smashed)
        # The loss is computed per sample and mean-reduced as a graph op:
        # the gradient is identical to the mean-reduced loss, and the
        # per-sample values double as the per-message loss report below —
        # no second loss pass over the union batch.
        per_sample_tensor = self._per_sample_loss(logits, labels)
        loss = per_sample_tensor.mean()

        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()

        # The wire gradients are row slices of ONE C-order array: a copy
        # of the boundary gradient (a channels-last or channel-major
        # gradient must not reach the wire strided) or, at cut 0, zeros
        # shaped like the payload (nobody reads them).
        if smashed.grad is None:
            wire = np.zeros(smashed.shape, dtype=smashed.dtype)
        else:
            wire = np.array(smashed.grad, order="C")

        # Per-message metrics from ONE vectorised pass over the union:
        # per-sample losses and arg-max hit flags are segment-averaged —
        # replacing the per-message loss/accuracy calls of the original
        # implementation (identical values, O(messages) fewer dispatches).
        # The wire slices are C-contiguous and disjoint; a message of
        # another dtype than the union (ragged traffic) gets a converted
        # copy.
        replies: List[GradientMessage] = []
        with no_grad():
            per_sample = np.asarray(per_sample_tensor.data)
            hits = logits.data.argmax(axis=-1) == np.asarray(labels).reshape(-1)
            losses = _segment_means(per_sample, segments)
            accuracies = _segment_means(hits, segments)
            for message, (start, stop), message_loss, message_accuracy in zip(
                messages, segments, losses, accuracies
            ):
                replies.append(
                    GradientMessage(
                        end_system_id=message.end_system_id,
                        batch_id=message.batch_id,
                        gradient=wire[start:stop].astype(message.activations.dtype,
                                                         copy=False),
                        loss=message_loss,
                        accuracy=message_accuracy,
                    )
                )
        self.batches_processed += len(messages)
        self.samples_processed += int(activations.shape[0])
        return replies

    def process_pending_batch(self, now: float) -> List[Tuple[ActivationMessage, GradientMessage]]:
        """Drain the whole queue (in policy order) through :meth:`process_batch`.

        The scheduling policy still decides the *order* in which messages
        leave the queue — which matters for the fairness statistics and
        for bounded queues — but every drained message lands in the same
        concatenated training step.  When the drain's payloads sit
        contiguously in the activation arena the step trains on a
        zero-copy view of it; otherwise it concatenates as before.
        """
        messages = self.queue.drain(now)
        # A one-message drain trains on the message's own arrays, so
        # don't claim a gathered view for it.
        staged = (
            self.arena.gather(messages)
            if self.arena is not None and len(messages) > 1
            else None
        )
        try:
            replies = self.process_batch(messages, staged=staged)
        finally:
            if self.arena is not None:
                # The step has consumed the batch and copied the gradient
                # slices out; the staged rows can be recycled.
                self.arena.release(messages)
        return list(zip(messages, replies))

    def flush_queue(self) -> List[ActivationMessage]:
        """Discard every pending message (shutdown path; no statistics).

        Releases the flushed messages' arena rows as well, so a budgeted
        run that stops mid-epoch does not pin arena memory.
        """
        messages = self.queue.flush()
        if self.arena is not None:
            self.arena.release(messages)
        return messages

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(self, activations: np.ndarray) -> np.ndarray:
        """Run the server segment without building a graph, returning logits."""
        with no_grad():
            logits = self.model(Tensor(activations))
        return logits.data

    def evaluate(self, activations: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
        """Loss and accuracy of the server segment on pre-computed activations."""
        logits = self.predict(activations)
        with no_grad():
            loss = self.loss_fn(Tensor(logits), labels)
        return {"loss": float(loss.item()), "accuracy": accuracy(logits, labels)}

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Checkpoint of the server segment's parameters."""
        return self.model.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the server segment's parameters."""
        self.model.load_state_dict(state)

    def __repr__(self) -> str:
        return (
            f"CentralServer(blocks_on_clients={self.split_spec.client_blocks}, "
            f"policy={type(self.queue.policy).__name__}, "
            f"batches_processed={self.batches_processed})"
        )
