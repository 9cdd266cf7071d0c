"""Image transforms.

Transforms operate on NumPy arrays of shape ``(N, C, H, W)`` and are
applied by the :class:`~repro.data.loader.DataLoader` before a batch is
handed to the model.  The augmentation transforms (flip, crop, noise)
are only meaningful on the training loader; normalization is used on both
sides.

A transform whose output depends on nothing but its input, sample by
sample, declares ``pure = True``; the loader applies it once to its whole
local array instead of once per batch.  Anything that draws from an RNG
is not pure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Transform",
    "Compose",
    "Normalize",
    "RandomHorizontalFlip",
    "RandomCrop",
    "GaussianNoise",
    "Cutout",
]


class Transform:
    """Base class: callable mapping a batch array to a batch array."""

    #: Whether the output is a per-sample function of the input alone
    #: (no RNG, no state), so batching does not change the result.
    pure = False

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Compose(Transform):
    """Apply a sequence of transforms in order."""

    def __init__(self, transforms: Sequence[Transform]) -> None:
        self.transforms = list(transforms)
        self.pure = all(transform.pure for transform in self.transforms)

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            batch = transform(batch)
        return batch

    def __repr__(self) -> str:
        inner = ", ".join(type(t).__name__ for t in self.transforms)
        return f"Compose([{inner}])"


class Normalize(Transform):
    """Standardize each channel: ``(x - mean) / std``.

    Parameters
    ----------
    mean / std:
        Per-channel statistics; scalars are broadcast to every channel.
    """

    pure = True

    def __init__(self, mean: Sequence[float] = (0.5,), std: Sequence[float] = (0.5,)) -> None:
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        if np.any(self.std <= 0):
            raise ValueError("std values must be positive")

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        mean = self.mean.reshape(1, -1, 1, 1) if batch.ndim == 4 else self.mean
        std = self.std.reshape(1, -1, 1, 1) if batch.ndim == 4 else self.std
        return (batch - mean) / std

    @staticmethod
    def from_dataset(images: np.ndarray) -> "Normalize":
        """Build a transform from the per-channel statistics of ``images``."""
        mean = images.mean(axis=(0, 2, 3))
        std = images.std(axis=(0, 2, 3))
        return Normalize(mean=mean, std=np.maximum(std, 1e-6))


class RandomHorizontalFlip(Transform):
    """Flip each image left-right with probability ``p``."""

    def __init__(self, p: float = 0.5, *, rng: np.random.Generator) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self._rng = rng

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 4:
            raise ValueError("RandomHorizontalFlip expects (N, C, H, W) batches")
        flip_mask = self._rng.random(batch.shape[0]) < self.p
        output = batch.copy()
        output[flip_mask] = output[flip_mask, :, :, ::-1]
        return output


class RandomCrop(Transform):
    """Pad by ``padding`` pixels then crop back to the original size at a random offset."""

    def __init__(self, padding: int = 4, *, rng: np.random.Generator) -> None:
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.padding = padding
        self._rng = rng

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 4:
            raise ValueError("RandomCrop expects (N, C, H, W) batches")
        if self.padding == 0:
            return batch
        n, c, h, w = batch.shape
        pad = self.padding
        padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        output = np.empty_like(batch)
        offsets_y = self._rng.integers(0, 2 * pad + 1, size=n)
        offsets_x = self._rng.integers(0, 2 * pad + 1, size=n)
        for index in range(n):
            oy, ox = offsets_y[index], offsets_x[index]
            output[index] = padded[index, :, oy:oy + h, ox:ox + w]
        return output


class GaussianNoise(Transform):
    """Add white Gaussian noise with standard deviation ``std``."""

    def __init__(self, std: float = 0.01, *, rng: np.random.Generator) -> None:
        if std < 0:
            raise ValueError("std must be non-negative")
        self.std = std
        self._rng = rng

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        if self.std == 0:
            return batch
        # Drawn in float64 and rounded, so every precision sees one stream.
        return batch + self.std * self._rng.standard_normal(batch.shape).astype(batch.dtype)


class Cutout(Transform):
    """Zero a random square patch in each image (simple regularizer)."""

    def __init__(self, size: int = 8, *, rng: np.random.Generator) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self._rng = rng

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 4:
            raise ValueError("Cutout expects (N, C, H, W) batches")
        n, _, h, w = batch.shape
        output = batch.copy()
        half = self.size // 2
        centers_y = self._rng.integers(0, h, size=n)
        centers_x = self._rng.integers(0, w, size=n)
        for index in range(n):
            y0 = max(0, centers_y[index] - half)
            y1 = min(h, centers_y[index] + half)
            x0 = max(0, centers_x[index] - half)
            x1 = min(w, centers_x[index] + half)
            output[index, :, y0:y1, x0:x1] = 0.0
        return output
