"""Loss functions as modules.

The split-learning server computes the loss on its side of the cut; these
classes wrap the functional losses so that the server can be configured
with a loss object (``CrossEntropyLoss`` for the paper's CIFAR-10-style
classification, ``MSELoss`` for regression-style workloads).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import functional as F
from .layers.base import Module
from .tensor import Tensor, ensure_tensor

__all__ = ["Loss", "CrossEntropyLoss", "NLLLoss", "MSELoss", "get_loss"]


class Loss(Module):
    """Base class for losses.

    Parameters
    ----------
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in {"mean", "sum", "none"}:
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction

    def extra_repr(self) -> str:
        return f"reduction={self.reduction}"


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy over raw logits and integer class labels."""

    def forward(self, logits: Tensor, labels: Union[np.ndarray, Tensor]) -> Tensor:
        labels = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
        return F.cross_entropy(logits, labels, reduction=self.reduction)


class NLLLoss(Loss):
    """Negative log-likelihood over log-probabilities and integer labels."""

    def forward(self, log_probs: Tensor, labels: Union[np.ndarray, Tensor]) -> Tensor:
        labels = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
        return F.nll_loss(log_probs, labels, reduction=self.reduction)


class MSELoss(Loss):
    """Mean squared error."""

    def forward(self, predictions: Tensor, targets: Union[np.ndarray, Tensor]) -> Tensor:
        return F.mse_loss(predictions, ensure_tensor(targets), reduction=self.reduction)


_LOSSES = {
    "cross_entropy": CrossEntropyLoss,
    "nll": NLLLoss,
    "mse": MSELoss,
}


def get_loss(name: str, reduction: str = "mean") -> Loss:
    """Instantiate a loss by name (``cross_entropy``, ``nll``, ``mse``)."""
    try:
        return _LOSSES[name](reduction=reduction)
    except KeyError:
        known = ", ".join(sorted(_LOSSES))
        raise KeyError(f"unknown loss {name!r}; known losses: {known}") from None
