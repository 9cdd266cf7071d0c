"""Spatial pooling layers (NCHW layout)."""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .. import functional as F
from ..tensor import Tensor
from .base import Module

__all__ = ["MaxPool2D"]

IntOrPair = Union[int, Tuple[int, int]]


class MaxPool2D(Module):
    """Max pooling; the ``MaxPooling2D`` block of the paper's Fig.-3 CNN.

    Beyond its usual role of spatial down-sampling, the paper's privacy
    argument (Fig. 4) rests on this layer: the max-pooled output of the
    first block no longer exposes the raw training image, so shipping it to
    the centralized server preserves data privacy.
    """

    def __init__(self, kernel_size: IntOrPair = 2, stride: Optional[IntOrPair] = None) -> None:
        super().__init__()
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride) if stride is not None else self.kernel_size

    def forward(self, inputs: Tensor) -> Tensor:
        if inputs.ndim != 4:
            raise ValueError(
                f"MaxPool2D expects 4-D input (N, C, H, W), got shape {inputs.shape}"
            )
        return F.max_pool2d(inputs, self.kernel_size, self.stride)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}, stride={self.stride}"
