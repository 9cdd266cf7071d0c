"""Message types exchanged between end-systems and the centralized server.

In spatio-temporal split learning the only data crossing the network are

* :class:`ActivationMessage` — the "smashed" activations produced by an
  end-system's last local layer together with the batch's labels (labels
  are required because the server computes the loss); and
* :class:`GradientMessage` — the gradient of the loss with respect to the
  smashed activations, flowing back so the end-system can finish
  back-propagation through its local layers.

Raw input images never appear in either message, which is the privacy
property the paper claims.

A message fixes its wire size (``size_bytes``) once, at construction — the
figure the link charges, the traffic log adds up and the transfer time is
computed from, for the first send and every retransmission alike.  By
default it equals :func:`repro.simnet.link.payload_bytes` of the message's
wire form.  When the sending end-system has a cut-layer codec
(:mod:`repro.core.compression`), the end-system sets it instead: the
codec's wire bytes plus the labels plus the dictionary framing, while
``activations`` holds what the server reconstructs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..simnet.link import DICT_FRAME_BYTES

__all__ = ["ActivationMessage", "GradientMessage"]

_ACTIVATION_COUNTER = itertools.count()


@dataclass
class ActivationMessage:
    """Smashed activations travelling from an end-system to the server."""

    end_system_id: int
    batch_id: int
    activations: np.ndarray
    labels: np.ndarray
    round_index: int = 0
    created_at: float = 0.0
    arrival_time: float = 0.0
    size_bytes: int = 0
    sequence: int = field(default_factory=lambda: next(_ACTIVATION_COUNTER))

    def __post_init__(self) -> None:
        self.activations = np.asarray(self.activations)
        self.labels = np.asarray(self.labels).reshape(-1)
        if self.activations.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"activation batch size {self.activations.shape[0]} does not match "
                f"label count {self.labels.shape[0]}"
            )
        if self.size_bytes == 0:
            # The wire form is a dictionary (see ``payload``).
            self.size_bytes = (self.activations.nbytes + self.labels.nbytes
                               + DICT_FRAME_BYTES)

    @property
    def payload(self) -> Dict[str, np.ndarray]:
        """The wire form shipped over the uplink."""
        return {"activations": self.activations, "labels": self.labels}

    @property
    def batch_size(self) -> int:
        """Number of samples carried by this message."""
        return int(self.activations.shape[0])

    @property
    def queueing_delay(self) -> float:
        """Seconds spent in flight (arrival - creation)."""
        return self.arrival_time - self.created_at

    def staleness(self, now: float) -> float:
        """Seconds elapsed since this message was created."""
        return now - self.created_at


@dataclass
class GradientMessage:
    """Gradient of the loss w.r.t. smashed activations, flowing back to an end-system.

    At cut 0 the end-system holds no layer to back-propagate through, so
    the server computes no boundary gradient and ``gradient`` is zeros
    with the payload's shape and dtype: ``size_bytes``, and so every
    downlink transfer, is what the real gradient would cost.
    """

    end_system_id: int
    batch_id: int
    gradient: np.ndarray
    loss: float = 0.0
    accuracy: float = 0.0
    created_at: float = 0.0
    arrival_time: float = 0.0
    size_bytes: int = 0

    def __post_init__(self) -> None:
        self.gradient = np.asarray(self.gradient)
        if self.size_bytes == 0:
            self.size_bytes = self.gradient.nbytes
