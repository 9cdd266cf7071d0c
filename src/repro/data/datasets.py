"""Datasets for the split-learning experiments.

The paper evaluates on CIFAR-10.  The real archive cannot be downloaded in
this offline environment, so this module provides a *synthetic,
deterministic* class-conditional image generator with the same tensor
interface (32x32 RGB images, 10 classes).  Each class is defined by a
smooth spatial prototype; samples are produced by jittering, distorting and
noising the prototype, giving a classification task that a CNN learns well
but that is not linearly separable at the pixel level.  The *relative*
accuracy ordering across split depths — the quantity Table I reports — is
what this substitution preserves (README.md, "Synthetic data"; PAPER.md
names the paper).

Generation contract: a synthetic dataset's identity is its seed plus the
*per-sample order of RNG draws* — the label shuffle, then for each sample in
turn its two shift integers, its deformation normals and its pixel normals.
Rendering may be batched (:data:`_RENDER_BLOCK` samples are shifted,
smoothed, scaled and clipped together), but the draws may never be
reordered or merged across samples: that would silently change every
dataset, split, partition and golden built on top.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "SyntheticImageDataset",
    "SyntheticCIFAR10",
    "SyntheticMNIST",
    "train_test_split",
]

#: Samples rendered together.  Memory, not speed, sets it: the two draw buffers
#: and the shifted prototypes are block-sized float64 arrays, so a
#: whole-dataset block shows in peak RSS, while 64 samples already remove the
#: per-sample call overhead.
_RENDER_BLOCK = 64


class Dataset:
    """Minimal dataset interface: length, indexing and bulk array access."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the full ``(images, labels)`` arrays."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple[np.ndarray, int]]:
        for index in range(len(self)):
            yield self[index]


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)`` (or ``(N, F)`` for flat features).
    labels:
        Integer array of shape ``(N,)``.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"images and labels disagree on sample count: "
                f"{images.shape[0]} vs {labels.shape[0]}"
            )
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels

    @property
    def num_classes(self) -> int:
        """Number of distinct classes present in the labels."""
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def class_counts(self) -> np.ndarray:
        """Number of samples per class (length ``num_classes``)."""
        return np.bincount(self.labels, minlength=self.num_classes)


class Subset(Dataset):
    """View of a dataset restricted to a list of indices (no copy of data)."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= len(dataset)
        ):
            raise IndexError("subset indices out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.dataset[int(self.indices[index])]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        # Compose a nested chain's indices (``a[i][j] == a[i[j]]``) and gather
        # once from the root, so no intermediate subset is materialised.
        dataset: Dataset = self.dataset
        indices = self.indices
        while isinstance(dataset, Subset):
            indices = dataset.indices[indices]
            dataset = dataset.dataset
        images, labels = dataset.arrays()
        return images[indices], labels[indices]


class SyntheticImageDataset(ArrayDataset):
    """Deterministic class-conditional synthetic image dataset.

    Each class ``k`` is defined by a smooth random prototype image.  A
    sample of class ``k`` is generated as::

        sample = shift(prototype_k, random offset)
                 + smooth per-sample deformation
                 + white pixel noise

    followed by clipping to ``[0, 1]``.  The three corruption strengths
    control task difficulty.

    Parameters
    ----------
    num_samples:
        Total number of samples (split roughly evenly across classes).
    num_classes:
        Number of classes.
    image_size:
        Spatial size ``H == W`` of the square images.
    channels:
        Number of channels (3 for the CIFAR-10-like variant, 1 for MNIST-like).
    prototype_smoothness:
        Gaussian-filter sigma applied to the class prototypes; larger values
        give smoother, easier-to-separate classes.
    jitter:
        Maximum circular shift (pixels) applied per sample.
    deformation_noise:
        Standard deviation of the smooth per-sample deformation field.
    pixel_noise:
        Standard deviation of the white pixel noise.
    seed:
        Seed controlling both prototypes and samples.
    """

    def __init__(
        self,
        num_samples: int = 2000,
        num_classes: int = 10,
        image_size: int = 32,
        channels: int = 3,
        prototype_smoothness: float = 4.0,
        jitter: int = 3,
        deformation_noise: float = 0.25,
        pixel_noise: float = 0.10,
        seed: int = 0,
    ) -> None:
        if num_samples < num_classes:
            raise ValueError("need at least one sample per class")
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if image_size < 4:
            raise ValueError("image_size must be at least 4")
        self.num_samples_requested = num_samples
        self.image_size = image_size
        self.channels = channels
        self.prototype_smoothness = prototype_smoothness
        self.jitter = jitter
        self.deformation_noise = deformation_noise
        self.pixel_noise = pixel_noise
        self.seed = seed

        rng = np.random.default_rng(seed)
        self.prototypes = self._make_prototypes(rng, num_classes)
        images, labels = self._generate(rng, num_samples, num_classes)
        super().__init__(images, labels)

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def _make_prototypes(self, rng: np.random.Generator, num_classes: int) -> np.ndarray:
        """Create one smooth prototype image per class, normalized to [0, 1]."""
        # Deferred to first use: scipy.ndimage is ~0.3 s of import time.
        from scipy import ndimage

        shape = (num_classes, self.channels, self.image_size, self.image_size)
        raw = rng.standard_normal(shape)
        smoothed = ndimage.gaussian_filter(
            raw, sigma=(0, 0, self.prototype_smoothness, self.prototype_smoothness)
        )
        # Normalize each prototype to span [0, 1] so classes are comparable.
        flat = smoothed.reshape(num_classes, -1)
        minimum = flat.min(axis=1, keepdims=True)
        maximum = flat.max(axis=1, keepdims=True)
        normalized = (flat - minimum) / np.maximum(maximum - minimum, 1e-8)
        return normalized.reshape(shape)

    def _generate(
        self, rng: np.random.Generator, num_samples: int, num_classes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Render every sample, :data:`_RENDER_BLOCK` at a time.

        Each sample is ``clip(roll(prototype, shift) + deformation_noise *
        smooth(normals) + pixel_noise * normals, 0, 1)``.  A block's draws are
        taken sample by sample in the contract's order; the block is then
        shifted, smoothed, scaled and clipped at once — the same elementwise
        arithmetic, so the bytes equal rendering one sample at a time.
        """
        labels = np.arange(num_samples, dtype=np.int64) % num_classes
        rng.shuffle(labels)
        images = np.empty(
            (num_samples, self.channels, self.image_size, self.image_size), dtype=np.float64
        )
        # Draw buffers shared by every block: allocating them per block churns
        # the heap enough to show in peak RSS.
        block_shape = (min(_RENDER_BLOCK, num_samples), *images.shape[1:])
        shifts = np.zeros((block_shape[0], 2), dtype=np.intp)
        deformation = (np.empty(block_shape, dtype=np.float64)
                       if self.deformation_noise > 0 else None)
        noise = np.empty(block_shape, dtype=np.float64) if self.pixel_noise > 0 else None
        grid = np.arange(self.image_size, dtype=np.intp)
        channels = np.arange(self.channels, dtype=np.intp)[None, :, None, None]
        for start in range(0, num_samples, _RENDER_BLOCK):
            count = min(_RENDER_BLOCK, num_samples - start)
            for index in range(count):
                if self.jitter > 0:
                    shifts[index, 0] = rng.integers(-self.jitter, self.jitter + 1)
                    shifts[index, 1] = rng.integers(-self.jitter, self.jitter + 1)
                if deformation is not None:
                    rng.standard_normal(out=deformation[index])
                if noise is not None:
                    rng.standard_normal(out=noise[index])

            # np.roll per sample as one gather: block[c, y, x] = proto[c, y - dy, x - dx].
            rows = (grid - shifts[:count, :1]) % self.image_size
            cols = (grid - shifts[:count, 1:]) % self.image_size
            block = self.prototypes[labels[start:start + count, None, None, None], channels,
                                    rows[:, None, :, None], cols[:, None, None, :]]
            if deformation is not None:
                from scipy import ndimage

                smooth = deformation[:count]
                ndimage.gaussian_filter(smooth, sigma=(0, 0, 2.0, 2.0), output=smooth)
                smooth *= self.deformation_noise
                block += smooth
            if noise is not None:
                pixels = noise[:count]
                pixels *= self.pixel_noise
                block += pixels
            np.clip(block, 0.0, 1.0, out=images[start:start + count])
        return images, labels

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        """Per-sample tensor shape ``(C, H, W)``."""
        return self.channels, self.image_size, self.image_size


class SyntheticCIFAR10(SyntheticImageDataset):
    """CIFAR-10 stand-in: 10 classes of 32x32 RGB images (see module docstring)."""

    def __init__(self, num_samples: int = 2000, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("num_classes", 10)
        kwargs.setdefault("image_size", 32)
        kwargs.setdefault("channels", 3)
        super().__init__(num_samples=num_samples, seed=seed, **kwargs)


class SyntheticMNIST(SyntheticImageDataset):
    """MNIST stand-in: 10 classes of 28x28 grayscale images."""

    def __init__(self, num_samples: int = 2000, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("num_classes", 10)
        kwargs.setdefault("image_size", 28)
        kwargs.setdefault("channels", 1)
        kwargs.setdefault("prototype_smoothness", 3.0)
        super().__init__(num_samples=num_samples, seed=seed, **kwargs)


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.2,
    seed: int = 0,
    stratified: bool = True,
) -> Tuple[Subset, Subset]:
    """Split a dataset into train and test subsets.

    Parameters
    ----------
    test_fraction:
        Fraction of samples assigned to the test subset.
    stratified:
        When ``True`` (default), every class contributes the same fraction
        to the test set, which keeps the small synthetic test sets balanced.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    _, labels = dataset.arrays()
    indices = np.arange(len(dataset), dtype=np.intp)

    if stratified:
        test_indices = []
        for cls in np.unique(labels):
            cls_indices = indices[labels == cls]
            rng.shuffle(cls_indices)
            take = max(1, int(round(len(cls_indices) * test_fraction)))
            test_indices.append(cls_indices[:take])
        test_indices = np.concatenate(test_indices)
    else:
        shuffled = indices.copy()
        rng.shuffle(shuffled)
        take = max(1, int(round(len(dataset) * test_fraction)))
        test_indices = shuffled[:take]

    test_mask = np.zeros(len(dataset), dtype=bool)
    test_mask[test_indices] = True
    train_indices = indices[~test_mask]
    return Subset(dataset, train_indices), Subset(dataset, np.sort(test_indices))
