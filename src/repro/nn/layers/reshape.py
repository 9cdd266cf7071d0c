"""Shape-manipulation layers."""

from __future__ import annotations

from ..tensor import Tensor
from .base import Module

__all__ = ["Flatten"]


class Flatten(Module):
    """Flatten all dimensions after the batch dimension.

    Sits between the last MaxPooling2D block and the first Dense layer of
    the paper's CNN.
    """

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.flatten_batch()
