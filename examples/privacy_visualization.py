"""Reproduce the paper's Fig. 4: what does the server actually see?

Fig. 4 shows an original CIFAR-10 image next to (b) the activation after
the Conv2D of block L1 and (c) the activation after the full L1 block
(Conv2D + MaxPooling2D): the convolution output is blurred but still
recognizable, the pooled output is not.

This example renders the same three "image captures" as ASCII heat-maps
(no plotting dependencies needed), then quantifies the visual impression
with the leakage metrics from :mod:`repro.core.privacy` — pixel
correlation with the original and the quality a linear reconstruction
attack achieves.

Run with::

    python examples/privacy_visualization.py
"""

from __future__ import annotations

import numpy as np

from repro import SplitSpec, SpatioTemporalTrainer, TrainingConfig, tiny_cnn_architecture
from repro.core.privacy import activation_to_images, leakage_report, upsample_nearest
from repro.data import IIDPartitioner, Normalize, SyntheticCIFAR10, train_test_split
from repro.nn import Tensor, no_grad
from repro.utils.tables import format_table

ASCII_RAMP = " .:-=+*#%@"


def ascii_heatmap(image: np.ndarray, width: int = 32) -> str:
    """Render a 2-D array as an ASCII heat-map (dark = low, bright = high)."""
    if image.shape[0] != width:
        image = upsample_nearest(image[None], width)[0]
    normalized = (image - image.min()) / max(image.max() - image.min(), 1e-12)
    characters = (normalized * (len(ASCII_RAMP) - 1)).astype(int)
    return "\n".join("".join(ASCII_RAMP[value] for value in row) for row in characters)


def main() -> None:
    # Train a small split deployment first so the L1 filters are realistic.
    dataset = SyntheticCIFAR10(num_samples=900, image_size=16, seed=0,
                               pixel_noise=0.15, deformation_noise=0.3)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=0)
    parts = IIDPartitioner(3, seed=0).partition(train)
    architecture = tiny_cnn_architecture(image_size=16, num_blocks=3,
                                         base_filters=8, dense_units=64)
    split = SplitSpec(architecture, client_blocks=1)
    normalize = Normalize(mean=[0.5, 0.5, 0.5], std=[0.5, 0.5, 0.5])
    trainer = SpatioTemporalTrainer(
        split, parts, TrainingConfig(epochs=3, batch_size=32, seed=0),
        train_transform=normalize,
    )
    print("training a small split deployment so the first-block filters are realistic...")
    trainer.train()

    # Pick one test image and capture the per-layer activations (Fig. 4).
    images, _ = test.arrays()
    sample = images[:1]
    client_model = trainer.end_systems[0].model
    with no_grad():
        activations = client_model.forward_collect(Tensor(sample))

    captures = {
        "(a) original image": sample.mean(axis=1)[0],
        "(b) after Conv2D of L1": activation_to_images(activations["L1_conv"].data)[0],
        "(c) after L1 (Conv2D + MaxPooling2D)": activation_to_images(activations["L1_pool"].data)[0],
    }
    for title, capture in captures.items():
        print(f"\n{title}  [{capture.shape[0]}x{capture.shape[1]}]")
        print(ascii_heatmap(capture, width=16))

    # Quantify the impression across a probe set.
    report = leakage_report(client_model, images[:200])
    print()
    print(format_table(
        ["layer", "pixel_correlation", "reconstruction_nmse", "reconstruction_ssim"],
        [[entry.layer, entry.correlation, entry.reconstruction_nmse, entry.reconstruction_ssim]
         for entry in report],
        float_format="{:.3f}",
        title="Fig. 4 quantified: leakage per client-side layer",
    ))
    print("\nExpected shape: correlation and reconstruction quality drop from the raw")
    print("input to the post-pooling activation — max-pooling is what hides the image.")


if __name__ == "__main__":
    main()
