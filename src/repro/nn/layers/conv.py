"""2-D convolution layer (NCHW layout)."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .. import functional as F
from ..init import he_normal
from ..dtype import get_default_dtype
from ..tensor import Tensor
from .base import Module, Parameter

__all__ = ["Conv2D"]

IntOrPair = Union[int, Tuple[int, int]]


class Conv2D(Module):
    """2-D convolution over mini-batches of images.

    This is the ``Conv2D`` block of the paper's Fig.-3 CNN.  With
    ``padding="same"`` and ``stride=1`` the spatial size is preserved,
    matching the Keras-style architecture the paper describes (each block's
    spatial reduction comes from the following MaxPooling2D layer).

    Parameters
    ----------
    in_channels / out_channels:
        Channel counts; the paper uses 3→16→32→64→128→256.
    kernel_size:
        Spatial kernel size (default 3).
    stride:
        Convolution stride (default 1).
    padding:
        Integer padding, or ``"same"`` to preserve spatial size for odd
        kernels with stride 1, or ``"valid"`` for no padding.
    activation:
        Optional fused epilogue (``"relu"``).  Equivalent to following
        the layer with ``ReLU()``, but in inference mode the clamp is
        applied inside the backend's GEMM epilogue while each output
        tile is cache-hot instead of as a separate pass.
    rng:
        Seeded NumPy generator the He-normal weight initialization draws from.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntOrPair = 3,
        stride: IntOrPair = 1,
        padding: Union[int, Tuple[int, int], str] = "same",
        bias: bool = True,
        activation: Optional[str] = None,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if activation not in (None, "relu"):
            raise ValueError(f"activation must be 'relu' or None, got {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride)
        self.padding = self._resolve_padding(padding)
        self.activation = activation

        weight_shape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(he_normal(weight_shape, rng), name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                np.zeros(out_channels, dtype=get_default_dtype()), name="bias"
            )
        else:
            self.bias = None

    def _resolve_padding(self, padding: Union[int, Tuple[int, int], str]) -> Tuple[int, int]:
        if isinstance(padding, str):
            mode = padding.lower()
            if mode == "same":
                if self.stride != (1, 1):
                    raise ValueError("padding='same' requires stride=1")
                kh, kw = self.kernel_size
                if kh % 2 == 0 or kw % 2 == 0:
                    raise ValueError("padding='same' requires odd kernel sizes")
                return kh // 2, kw // 2
            if mode == "valid":
                return 0, 0
            raise ValueError(f"unknown padding mode {padding!r}")
        return F._pair(padding)

    def forward(self, inputs: Tensor) -> Tensor:
        if inputs.ndim != 4:
            raise ValueError(
                f"Conv2D expects 4-D input (N, C, H, W), got shape {inputs.shape}"
            )
        if inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects {self.in_channels} input channels, got {inputs.shape[1]}"
            )
        return F.conv2d(inputs, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, activation=self.activation)

    def extra_repr(self) -> str:
        base = (
            f"in_channels={self.in_channels}, out_channels={self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding}"
        )
        if self.activation is not None:
            base += f", activation={self.activation!r}"
        return base
