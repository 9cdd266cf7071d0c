"""Activation layers."""

from __future__ import annotations

from ..tensor import Tensor
from .base import Module

__all__ = ["ReLU"]


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()
