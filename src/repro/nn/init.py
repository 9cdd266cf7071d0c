"""Weight-initialization schemes for the NumPy neural-network substrate.

The paper's CNN (Fig. 3) uses ReLU activations throughout, so He/Kaiming
initialization is the default for convolution and dense layers; Xavier
(Glorot) is provided for tanh/sigmoid networks and for the linear probes
used in the privacy-inversion analysis.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .dtype import get_default_dtype

__all__ = [
    "compute_fans",
    "he_normal",
    "he_uniform",
    "xavier_normal",
    "xavier_uniform",
    "zeros",
    "ones",
    "normal",
    "uniform",
    "get_initializer",
]


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


def he_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Kaiming-He uniform initialization for ReLU networks."""
    fan_in, _ = compute_fans(shape)
    limit = math.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(), copy=False)


def xavier_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-Xavier normal initialization."""
    fan_in, fan_out = compute_fans(shape)
    std = math.sqrt(2.0 / max(fan_in + fan_out, 1))
    return rng.normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-Xavier uniform initialization."""
    fan_in, fan_out = compute_fans(shape)
    limit = math.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(), copy=False)


def zeros(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-one initialization (BatchNorm scale)."""
    return np.ones(shape, dtype=get_default_dtype())


def normal(shape: Tuple[int, ...], rng: np.random.Generator,
           std: float = 0.01) -> np.ndarray:
    """Small-scale Gaussian initialization."""
    return rng.normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)


def uniform(shape: Tuple[int, ...], rng: np.random.Generator,
            limit: float = 0.05) -> np.ndarray:
    """Uniform initialization in ``[-limit, limit]``."""
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(), copy=False)


_INITIALIZERS = {
    "he_normal": he_normal,
    "he_uniform": he_uniform,
    "xavier_normal": xavier_normal,
    "xavier_uniform": xavier_uniform,
    "zeros": zeros,
    "ones": ones,
    "normal": normal,
    "uniform": uniform,
}


def get_initializer(name: str):
    """Look up an initializer function by name.

    Raises
    ------
    KeyError
        If ``name`` does not correspond to a known initializer.
    """
    try:
        return _INITIALIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_INITIALIZERS))
        raise KeyError(f"unknown initializer {name!r}; known initializers: {known}") from None
