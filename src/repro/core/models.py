"""Model architectures used in the paper's evaluation.

The paper's Fig. 3 describes the CNN used for CIFAR-10 classification:
five blocks of ``Conv2D + MaxPooling2D`` with 16, 32, 64, 128 and 256
filters, followed by a 512-unit dense layer and a 10-unit output layer.
:class:`CNNArchitecture` is a factory for this family of networks with
stable layer names (``L1_conv``, ``L1_pool``, ..., ``dense1``,
``output``), which is what lets a :class:`~repro.core.split.SplitSpec`
express cut points such as "everything up to and including ``L2``".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import Conv2D, Dense, Flatten, MaxPool2D, Module, ReLU, Sequential

__all__ = [
    "CNNArchitecture",
    "paper_cnn_architecture",
    "tiny_cnn_architecture",
    "mnist_cnn_architecture",
    "build_paper_cnn",
]


@dataclass
class CNNArchitecture:
    """Factory for block-structured CNNs in the style of the paper's Fig. 3.

    A "block" ``L_i`` is ``Conv2D -> ReLU -> MaxPooling2D`` with
    ``base_filters * 2**(i-1)`` filters.  After ``num_blocks`` blocks the
    feature map is flattened and fed through a ``dense_units``-wide hidden
    dense layer and a ``num_classes``-wide output layer.

    Parameters
    ----------
    num_classes:
        Output classes (10 for the CIFAR-10-style task).
    in_channels:
        Input image channels (3 for RGB).
    image_size:
        Square input size; must be divisible by ``2 ** num_blocks`` so the
        max-pooling chain ends on an integer spatial size.
    num_blocks:
        Number of ``Conv2D + MaxPooling2D`` blocks (5 in the paper).
    base_filters:
        Filters in block ``L1``; doubled every block (16 in the paper).
    dense_units:
        Width of the penultimate dense layer (512 in the paper).
    kernel_size:
        Convolution kernel size (3 everywhere).
    """

    num_classes: int = 10
    in_channels: int = 3
    image_size: int = 32
    num_blocks: int = 5
    base_filters: int = 16
    dense_units: int = 512
    kernel_size: int = 3

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("need at least one block")
        if self.image_size % (2 ** self.num_blocks) != 0:
            raise ValueError(
                f"image_size={self.image_size} is not divisible by "
                f"2**num_blocks={2 ** self.num_blocks}"
            )
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.base_filters < 1 or self.dense_units < 1:
            raise ValueError("base_filters and dense_units must be positive")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def filters(self) -> List[int]:
        """Filter count of each block, ``L1`` first."""
        return [self.base_filters * (2 ** index) for index in range(self.num_blocks)]

    @property
    def block_names(self) -> List[str]:
        """Block labels ``["L1", ..., "L{num_blocks}"]``."""
        return [f"L{index + 1}" for index in range(self.num_blocks)]

    def block_output_shape(self, block: int) -> Tuple[int, int, int]:
        """Shape ``(C, H, W)`` of the activation after block ``block`` (1-based).

        ``block=0`` returns the raw input shape.
        """
        if not 0 <= block <= self.num_blocks:
            raise ValueError(f"block must be in [0, {self.num_blocks}], got {block}")
        if block == 0:
            return self.in_channels, self.image_size, self.image_size
        size = self.image_size // (2 ** block)
        return self.filters[block - 1], size, size

    @property
    def flattened_size(self) -> int:
        """Number of features entering the first dense layer."""
        channels, height, width = self.block_output_shape(self.num_blocks)
        return channels * height * width

    def boundary_layer_name(self, client_blocks: int) -> Optional[str]:
        """Name of the last layer held by end-systems for a given cut.

        ``client_blocks=0`` (all layers on the server) returns ``None``.
        """
        if not 0 <= client_blocks <= self.num_blocks:
            raise ValueError(
                f"client_blocks must be in [0, {self.num_blocks}], got {client_blocks}"
            )
        if client_blocks == 0:
            return None
        return f"L{client_blocks}_pool"

    # ------------------------------------------------------------------ #
    # Model construction
    # ------------------------------------------------------------------ #
    def build(self, seed: int) -> Sequential:
        """Instantiate the full network with freshly initialized parameters."""
        rng = np.random.default_rng(seed)
        model = self._blocks(self.num_blocks, rng)
        model.append(Flatten(), name="flatten")
        model.append(Dense(self.flattened_size, self.dense_units, rng=rng), name="dense1")
        model.append(ReLU(), name="dense1_relu")
        model.append(Dense(self.dense_units, self.num_classes, rng=rng), name="output")
        return model

    def build_blocks(self, count: int, seed: int) -> Sequential:
        """Instantiate blocks ``L1 .. L{count}`` only.

        The blocks draw their initialization first, so for the same seed
        these are exactly the first ``3 * count`` layers of :meth:`build`.
        """
        return self._blocks(count, np.random.default_rng(seed))

    def _blocks(self, count: int, rng: np.random.Generator) -> Sequential:
        if not 0 <= count <= self.num_blocks:
            raise ValueError(f"count must be in [0, {self.num_blocks}], got {count}")
        layers: List[Tuple[str, Module]] = []
        in_channels = self.in_channels
        for index, out_channels in enumerate(self.filters[:count]):
            block = f"L{index + 1}"
            layers.append((f"{block}_conv", Conv2D(
                in_channels, out_channels, kernel_size=self.kernel_size,
                padding="same", rng=rng,
            )))
            layers.append((f"{block}_relu", ReLU()))
            layers.append((f"{block}_pool", MaxPool2D(2)))
            in_channels = out_channels
        return Sequential(layers)

    def describe(self) -> str:
        """One-line human-readable description of the architecture."""
        blocks = " → ".join(
            f"{name}[{filters}f]" for name, filters in zip(self.block_names, self.filters)
        )
        return (
            f"CNN({self.in_channels}x{self.image_size}x{self.image_size} → {blocks} → "
            f"Dense({self.dense_units}) → Dense({self.num_classes}))"
        )


def paper_cnn_architecture(num_classes: int = 10) -> CNNArchitecture:
    """The exact Fig.-3 architecture: 5 blocks, 16..256 filters, Dense 512/10."""
    return CNNArchitecture(
        num_classes=num_classes,
        in_channels=3,
        image_size=32,
        num_blocks=5,
        base_filters=16,
        dense_units=512,
    )


def tiny_cnn_architecture(num_classes: int = 10, image_size: int = 16,
                          num_blocks: int = 3, base_filters: int = 4,
                          dense_units: int = 32) -> CNNArchitecture:
    """A down-scaled architecture for fast tests and laptop-scale benchmarks.

    It keeps the same block structure (Conv2D + MaxPooling2D, doubling
    filters) so the split points behave identically; only the widths and
    depths are reduced.
    """
    return CNNArchitecture(
        num_classes=num_classes,
        in_channels=3,
        image_size=image_size,
        num_blocks=num_blocks,
        base_filters=base_filters,
        dense_units=dense_units,
    )


def mnist_cnn_architecture(num_classes: int = 10) -> CNNArchitecture:
    """Architecture for the MNIST-like single-channel dataset (28x28 → 28 is not a
    power-of-two multiple, so images are expected to be padded/cropped to 32)."""
    return CNNArchitecture(
        num_classes=num_classes,
        in_channels=1,
        image_size=32,
        num_blocks=3,
        base_filters=8,
        dense_units=64,
    )


def build_paper_cnn(seed: int, num_classes: int = 10) -> Sequential:
    """Convenience wrapper: instantiate the paper's Fig.-3 CNN directly."""
    return paper_cnn_architecture(num_classes=num_classes).build(seed=seed)
