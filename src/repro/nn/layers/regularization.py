"""Regularization layers: dropout and batch normalization."""

from __future__ import annotations

import numpy as np

from ..dtype import get_default_dtype
from ..tensor import Tensor
from .base import Module, Parameter

__all__ = ["Dropout", "BatchNorm2D", "BatchNorm1D"]


class Dropout(Module):
    """Inverted dropout.

    During training each element is zeroed with probability ``p`` and the
    survivors are scaled by ``1/(1-p)`` so the expected activation is
    unchanged; during evaluation the layer is the identity.
    """

    def __init__(self, p: float = 0.5, *, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, inputs: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return inputs
        keep = 1.0 - self.p
        mask = (self._rng.random(inputs.shape) < keep).astype(inputs.dtype) / keep
        return inputs * Tensor(mask)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class _BatchNormBase(Module):
    """Shared implementation of 1-D and 2-D batch normalization."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=get_default_dtype()), name="gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=get_default_dtype()), name="beta")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=get_default_dtype()))
        self.register_buffer("running_var", np.ones(num_features, dtype=get_default_dtype()))

    @property
    def running_mean(self) -> np.ndarray:
        return self._buffers["running_mean"]

    @property
    def running_var(self) -> np.ndarray:
        return self._buffers["running_var"]

    def _normalize(self, inputs: Tensor, axes, shape) -> Tensor:
        if self.training:
            batch_mean = inputs.data.mean(axis=axes)
            batch_var = inputs.data.var(axis=axes)
            self._buffers["running_mean"] = (
                (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * batch_mean
            )
            self._buffers["running_var"] = (
                (1 - self.momentum) * self._buffers["running_var"] + self.momentum * batch_var
            )
            mean = inputs.mean(axis=axes, keepdims=True)
            var = inputs.var(axis=axes, keepdims=True)
        else:
            mean = Tensor(self._buffers["running_mean"].reshape(shape))
            var = Tensor(self._buffers["running_var"].reshape(shape))
        normalized = (inputs - mean) / (var + self.eps).sqrt()
        return normalized * self.gamma.reshape(*shape) + self.beta.reshape(*shape)

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}, momentum={self.momentum}, eps={self.eps}"


class BatchNorm2D(_BatchNormBase):
    """Batch normalization over ``(N, C, H, W)`` inputs, per channel."""

    def forward(self, inputs: Tensor) -> Tensor:
        if inputs.ndim != 4:
            raise ValueError(
                f"BatchNorm2D expects 4-D input (N, C, H, W), got shape {inputs.shape}"
            )
        if inputs.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2D expects {self.num_features} channels, got {inputs.shape[1]}"
            )
        return self._normalize(inputs, axes=(0, 2, 3), shape=(1, self.num_features, 1, 1))


class BatchNorm1D(_BatchNormBase):
    """Batch normalization over ``(N, F)`` inputs, per feature."""

    def forward(self, inputs: Tensor) -> Tensor:
        if inputs.ndim != 2:
            raise ValueError(
                f"BatchNorm1D expects 2-D input (N, F), got shape {inputs.shape}"
            )
        if inputs.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1D expects {self.num_features} features, got {inputs.shape[1]}"
            )
        return self._normalize(inputs, axes=(0,), shape=(1, self.num_features))
