"""Image normalization.

:class:`Normalize` is the one transform a deployment applies: the
:class:`~repro.data.loader.DataLoader` standardizes its local array with
it once, on the first iteration, and the trainer and the baselines
normalize their evaluation arrays with the same instance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Normalize"]


class Normalize:
    """Standardize each channel: ``(x - mean) / std``.

    An elementwise function of each sample alone, so normalizing a whole
    array at once gives bit-identical rows to normalizing any batch of it.

    Parameters
    ----------
    mean / std:
        Per-channel statistics; scalars are broadcast to every channel.
    """

    def __init__(self, mean: Sequence[float] = (0.5,), std: Sequence[float] = (0.5,)) -> None:
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        if np.any(self.std <= 0):
            raise ValueError("std values must be positive")

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        mean = self.mean.reshape(1, -1, 1, 1) if batch.ndim == 4 else self.mean
        std = self.std.reshape(1, -1, 1, 1) if batch.ndim == 4 else self.std
        return (batch - mean) / std
