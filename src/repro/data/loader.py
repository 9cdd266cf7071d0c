"""Mini-batch iteration over datasets."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .datasets import Dataset
from .transforms import Normalize

__all__ = ["DataLoader", "Batch"]

Batch = Tuple[np.ndarray, np.ndarray]


class DataLoader:
    """Iterate over a dataset in shuffled mini-batches.

    Each iteration yields ``(images, labels)`` NumPy arrays; the training
    loop wraps the images in a :class:`~repro.nn.tensor.Tensor` itself so
    that the loader stays framework-agnostic.

    Parameters
    ----------
    dataset:
        Any object implementing the :class:`~repro.data.datasets.Dataset`
        interface (``arrays()`` in particular).
    batch_size:
        Number of samples per batch.
    shuffle:
        Reshuffle sample order at the start of every epoch.
    drop_last:
        Drop the final short batch when the dataset size is not a multiple
        of ``batch_size``.
    transform:
        Optional :class:`~repro.data.transforms.Normalize`.  The loader
        normalizes its whole local array with it once, on the first
        iteration; the transform is elementwise, so every batch is
        bit-identical to normalizing that batch alone.
    seed:
        Seed for the shuffling generator (shuffling is deterministic per
        epoch index so runs are reproducible).
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        shuffle: bool = True,
        drop_last: bool = False,
        transform: Optional[Normalize] = None,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(dataset) == 0:
            raise ValueError("cannot build a DataLoader over an empty dataset")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.transform = transform
        self.seed = seed
        self._epoch = 0
        # Materialize once; datasets are in-memory arrays in this project.
        self._images, self._labels = dataset.arrays()
        # The transform is applied on the first __iter__, not here.
        self._transformed = False

    def __len__(self) -> int:
        full, remainder = divmod(len(self.dataset), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    @property
    def num_samples(self) -> int:
        """Number of samples visited per epoch."""
        if self.drop_last:
            return (len(self.dataset) // self.batch_size) * self.batch_size
        return len(self.dataset)

    def set_epoch(self, epoch: int) -> None:
        """Set the epoch index used to derive the shuffling order."""
        self._epoch = int(epoch)

    def _epoch_order(self) -> np.ndarray:
        indices = np.arange(len(self.dataset), dtype=np.intp)
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self._epoch)
            rng.shuffle(indices)
        return indices

    def __iter__(self) -> Iterator[Batch]:
        if self.transform is not None and not self._transformed:
            self._images = self.transform(self._images)
            self._transformed = True
        order = self._epoch_order()[:self.num_samples]
        self._epoch += 1
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            yield self._images[batch], self._labels[batch]
