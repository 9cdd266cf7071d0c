"""End-system: the client side of spatio-temporal split learning.

Each end-system (a hospital in the paper's motivating scenario) owns

* a private local dataset that never leaves the machine,
* its own copy of the first ``L_i`` blocks of the CNN (the *client
  segment*), and
* an optimizer for those local parameters.

During training the end-system pushes a batch through its client segment,
ships the resulting smashed activations (plus labels) to the centralized
server, and later — when the server's gradient message arrives — finishes
back-propagation through its local layers and applies the update.  An
optional cut-layer codec (:mod:`repro.core.compression`) encodes the
activations before they ship; the server trains on what the codec
reconstructs and the client back-propagates the server's gradient through
its own, uncompressed outputs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..data.loader import DataLoader
from ..nn import Sequential, Tensor, get_default_dtype, no_grad
from ..nn.optim import Optimizer, get_optimizer
from ..simnet.link import DICT_FRAME_BYTES
from .compression import ActivationTransform
from .messages import ActivationMessage, GradientMessage
from .split import SplitSpec

__all__ = ["EndSystem"]


class EndSystem:
    """One client in the spatio-temporal split-learning system.

    Parameters
    ----------
    system_id:
        Integer identifier (also used as the node index in the simulated
        network topology).
    loader:
        DataLoader over the end-system's *local* training shard.
    split_spec:
        The architecture/cut description shared by the whole deployment.
    optimizer_name / optimizer_kwargs:
        Optimizer for the client segment's parameters (ignored when the
        cut is 0 and the client segment has no parameters).
    seed:
        Seed for the client segment's weight initialization; every
        end-system should receive a different seed.
    """

    def __init__(
        self,
        system_id: int,
        loader: DataLoader,
        split_spec: SplitSpec,
        optimizer_name: str = "adam",
        optimizer_kwargs: Optional[Dict] = None,
        *,
        seed: int,
    ) -> None:
        self.system_id = int(system_id)
        #: Cut-layer transform applied to every activation message this
        #: end-system ships; ``None`` ships the raw activations, the
        #: paper's wire form.
        self.codec: Optional[ActivationTransform] = None
        self.loader = loader
        self.split_spec = split_spec
        self.model: Sequential = split_spec.build_client_segment(seed=seed)
        optimizer_kwargs = dict(optimizer_kwargs or {"lr": 1e-3})
        parameters = self.model.parameters()
        self.optimizer: Optional[Optimizer] = None
        if parameters:
            self.optimizer = get_optimizer(optimizer_name, parameters, **optimizer_kwargs)
        # Pending forward activations, keyed by batch id, waiting for the
        # server's gradient to complete back-propagation.
        self._pending: Dict[int, Tensor] = {}
        self._next_batch_id = 0
        self.samples_seen = 0
        self.updates_applied = 0
        # How many times the network/queue told this end-system one of its
        # batches was lost (transport drop, downlink drop or queue overflow).
        self.drops_notified = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def node_name(self) -> str:
        """Name of this end-system in the simulated topology."""
        return f"end_system_{self.system_id}"

    @property
    def has_trainable_parameters(self) -> bool:
        """False only for the ``client_blocks=0`` (centralized) configuration."""
        return self.optimizer is not None

    @property
    def num_local_samples(self) -> int:
        """Number of training samples stored on this end-system."""
        return len(self.loader.dataset)

    @property
    def pending_batches(self) -> int:
        """Batches forwarded but not yet updated with a server gradient."""
        return len(self._pending)

    @property
    def pending_batch_ids(self) -> Tuple[int, ...]:
        """Ids of the batches whose activations are still stored."""
        return tuple(self._pending)

    # ------------------------------------------------------------------ #
    # Training-side API
    # ------------------------------------------------------------------ #
    def batches(self, epoch: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate over the local shard's mini-batches for ``epoch``."""
        self.loader.set_epoch(epoch)
        return iter(self.loader)

    def forward_batch(self, images: np.ndarray, labels: np.ndarray,
                      round_index: int = 0, created_at: float = 0.0) -> ActivationMessage:
        """Run the client segment and package the smashed activations.

        The returned message holds a *detached copy* of the activations:
        the server never sees the client-side computation graph, mirroring
        the real deployment where only raw bytes cross the network.  With a
        ``codec`` the message carries the codec's reconstruction and its
        ``size_bytes`` is the codec's wire bytes plus labels and framing.
        """
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        if len(self.model) == 0:
            # client_blocks == 0: ship the images in the default dtype — the
            # bytes a Tensor round trip through the empty segment would give.
            activations = np.array(images, dtype=get_default_dtype(), order="C")
        else:
            # No gradient for the raw images: nobody reads it.
            outputs = self.model(Tensor(images))
            if self.has_trainable_parameters:
                self._pending[batch_id] = outputs
            activations = outputs.data.copy()
        self.samples_seen += images.shape[0]
        labels = np.asarray(labels).copy()
        size_bytes = 0  # the message sizes its raw wire form
        if self.codec is not None:
            encoded = self.codec.apply(activations)
            activations = encoded.activations
            size_bytes = encoded.wire_bytes + labels.nbytes + DICT_FRAME_BYTES
        return ActivationMessage(
            end_system_id=self.system_id,
            batch_id=batch_id,
            activations=activations,
            labels=labels,
            round_index=round_index,
            created_at=created_at,
            size_bytes=size_bytes,
        )

    def apply_gradient(self, message: GradientMessage) -> None:
        """Finish back-propagation with the server's gradient and update weights.

        With no trainable client segment the gradient is never read (at
        cut 0 the server sends zeros of the payload's shape instead of
        computing it); the pending batch is only forgotten.
        """
        if not self.has_trainable_parameters:
            # Nothing to learn locally (client_blocks = 0).
            self._pending.pop(message.batch_id, None)
            return
        if message.end_system_id != self.system_id:
            raise ValueError(
                f"gradient for end-system {message.end_system_id} delivered to "
                f"end-system {self.system_id}"
            )
        outputs = self._pending.pop(message.batch_id, None)
        if outputs is None:
            raise KeyError(
                f"end-system {self.system_id} has no pending batch {message.batch_id}"
            )
        if message.gradient.shape != outputs.shape:
            raise ValueError(
                f"gradient shape {message.gradient.shape} does not match activation "
                f"shape {outputs.shape}"
            )
        self.optimizer.zero_grad()
        outputs.backward(message.gradient)
        self.optimizer.step()
        self.updates_applied += 1

    def discard_pending(self, batch_id: Optional[int] = None) -> int:
        """Drop pending activations (all of them when ``batch_id`` is ``None``).

        Used when the network dropped the corresponding message and the
        server's gradient will never arrive.
        """
        if batch_id is not None:
            return 1 if self._pending.pop(batch_id, None) is not None else 0
        dropped = len(self._pending)
        self._pending.clear()
        return dropped

    def notify_drop(self, batch_id: int) -> int:
        """Record that the network or server queue lost batch ``batch_id``.

        Every drop anywhere on the path (uplink loss, queue overflow,
        downlink loss) must funnel through here so the client both
        forgets the pending activation — its gradient will never arrive —
        and counts the loss.  The drop-accounting tests check that the
        sum of these notifications matches the transport log plus the
        queue's drop counter.
        """
        self.drops_notified += 1
        return self.discard_pending(batch_id)

    # ------------------------------------------------------------------ #
    # Inference-side API
    # ------------------------------------------------------------------ #
    def forward_inference(self, images: np.ndarray) -> np.ndarray:
        """Run the client segment without building a graph (evaluation path)."""
        with no_grad():
            outputs = self.model(Tensor(images))
        return outputs.data

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Checkpoint of the client segment's parameters."""
        return self.model.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the client segment's parameters."""
        self.model.load_state_dict(state)

    def __repr__(self) -> str:
        return (
            f"EndSystem(id={self.system_id}, samples={self.num_local_samples}, "
            f"blocks={self.split_spec.client_blocks})"
        )
