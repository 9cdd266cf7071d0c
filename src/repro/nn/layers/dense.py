"""Fully-connected (dense) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from ..init import he_normal
from ..dtype import get_default_dtype
from ..tensor import Tensor
from .base import Module, Parameter

__all__ = ["Dense"]


class Dense(Module):
    """Affine transformation ``y = x @ W + b``.

    The paper's CNN ends in two dense layers (512 units and a 10-unit
    output layer); both live on the centralized server for every split
    configuration evaluated in Table I.

    Parameters
    ----------
    in_features:
        Size of the input feature dimension.
    out_features:
        Size of the output feature dimension.
    bias:
        Whether to learn an additive bias (default ``True``).
    rng:
        Seeded NumPy generator the He-normal weight initialization draws from.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Dense dimensions must be positive, got {in_features}x{out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(he_normal((in_features, out_features), rng), name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                np.zeros(out_features, dtype=get_default_dtype()), name="bias"
            )
        else:
            self.bias = None

    def forward(self, inputs: Tensor) -> Tensor:
        if inputs.ndim != 2:
            raise ValueError(
                f"Dense expects 2-D input (batch, features), got shape {inputs.shape}"
            )
        if inputs.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects {self.in_features} input features, got {inputs.shape[1]}"
            )
        # One fused affine node: the bias rides the GEMM epilogue of the
        # active backend instead of a separate broadcast-add node.
        return F.linear(inputs, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"in_features={self.in_features}, out_features={self.out_features}, bias={self.bias is not None}"
