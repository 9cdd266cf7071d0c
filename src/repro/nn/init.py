"""Weight initialization for the NumPy neural-network substrate.

The paper's CNN (Fig. 3) uses ReLU activations throughout, so every
convolution and dense layer draws its weights He/Kaiming-normal.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .dtype import get_default_dtype

__all__ = ["compute_fans", "he_normal"]


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Dense weights are ``(in_features, out_features)``; convolution weights
    are ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    elif len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        size = int(np.prod(shape))
        fan_in = fan_out = int(math.sqrt(size))
    return int(fan_in), int(fan_out)


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Kaiming-He normal initialization for ReLU networks."""
    fan_in, _ = compute_fans(shape)
    std = math.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)
