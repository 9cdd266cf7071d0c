"""Privacy analysis of the smashed activations (the paper's Fig. 4).

Fig. 4 of the paper shows three image captures: (a) an original CIFAR-10
training image, (b) the activation after the Conv2D of block ``L1`` —
"blurred" but still recognizable — and (c) the activation after the full
``L1`` block (Conv2D + MaxPooling2D), which "definitely hides" the
original image.  This module turns that qualitative figure into numbers:

* :func:`activation_to_images` renders an activation tensor as a
  grayscale image (channel mean), the direct analogue of the figure;
* :func:`pixel_correlation` measures how much of the original image
  structure survives in that rendering;
* :class:`LinearReconstructionAttack` trains a ridge-regression inverter
  from activations back to pixels — an *active* adversary at the server —
  and reports the reconstruction error (MSE / PSNR / SSIM);
* :func:`leakage_report` runs all of the above for every layer of a
  client segment, producing the per-layer leakage profile the figure
  gestures at.

Lower correlation, lower PSNR/SSIM and higher reconstruction MSE all mean
*better privacy*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import Sequential, Tensor, no_grad

__all__ = [
    "activation_to_images",
    "upsample_nearest",
    "normalized_mse",
    "psnr",
    "ssim",
    "pixel_correlation",
    "LinearReconstructionAttack",
    "LayerLeakage",
    "leakage_report",
]


# --------------------------------------------------------------------------- #
# Rendering activations as images (Fig. 4's "image capture")
# --------------------------------------------------------------------------- #
def activation_to_images(activations: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Render a batch of activations as grayscale images.

    Parameters
    ----------
    activations:
        Array of shape ``(N, C, H, W)``.
    normalize:
        Rescale each image to span ``[0, 1]`` (as an image viewer would).

    Returns
    -------
    Array of shape ``(N, H, W)``.
    """
    activations = np.asarray(activations)
    if activations.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) activations, got shape {activations.shape}")
    images = activations.mean(axis=1)
    if normalize:
        flat = images.reshape(images.shape[0], -1)
        minimum = flat.min(axis=1, keepdims=True)
        maximum = flat.max(axis=1, keepdims=True)
        flat = (flat - minimum) / np.maximum(maximum - minimum, 1e-12)
        images = flat.reshape(images.shape)
    return images


def upsample_nearest(images: np.ndarray, target_size: int) -> np.ndarray:
    """Nearest-neighbour upsample ``(N, H, W)`` images to ``(N, target, target)``."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError(f"expected (N, H, W) images, got shape {images.shape}")
    height = images.shape[1]
    if target_size % height != 0:
        raise ValueError(
            f"target size {target_size} is not a multiple of the source size {height}"
        )
    factor = target_size // height
    return np.repeat(np.repeat(images, factor, axis=1), factor, axis=2)


# --------------------------------------------------------------------------- #
# Image-similarity metrics
# --------------------------------------------------------------------------- #
def normalized_mse(reference: np.ndarray, reconstruction: np.ndarray) -> float:
    """Mean squared error normalized by the reference's variance.

    0 means perfect reconstruction; 1 means the reconstruction is no better
    than predicting the reference's mean.
    """
    reference = np.asarray(reference, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if reference.shape != reconstruction.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {reconstruction.shape}"
        )
    mse = float(np.mean((reference - reconstruction) ** 2))
    variance = float(np.var(reference))
    return mse / max(variance, 1e-12)


def psnr(reference: np.ndarray, reconstruction: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (higher = reconstruction closer to reference)."""
    reference = np.asarray(reference, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    mse = float(np.mean((reference - reconstruction) ** 2))
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10((data_range ** 2) / mse))


def ssim(reference: np.ndarray, reconstruction: np.ndarray, data_range: float = 1.0,
         sigma: float = 1.5) -> float:
    """Mean structural similarity between two grayscale image batches.

    Implements the standard Gaussian-weighted SSIM with the usual
    ``K1=0.01, K2=0.03`` constants, averaged over pixels and samples.
    Accepts ``(H, W)`` single images or ``(N, H, W)`` batches.
    """
    # Deferred to first use: scipy.ndimage is ~0.3 s of import time.
    from scipy import ndimage

    reference = np.asarray(reference, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if reference.shape != reconstruction.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {reconstruction.shape}")
    if reference.ndim == 2:
        reference = reference[None]
        reconstruction = reconstruction[None]

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    values = []
    for ref, rec in zip(reference, reconstruction):
        mu_x = ndimage.gaussian_filter(ref, sigma)
        mu_y = ndimage.gaussian_filter(rec, sigma)
        sigma_x = ndimage.gaussian_filter(ref * ref, sigma) - mu_x * mu_x
        sigma_y = ndimage.gaussian_filter(rec * rec, sigma) - mu_y * mu_y
        sigma_xy = ndimage.gaussian_filter(ref * rec, sigma) - mu_x * mu_y
        numerator = (2 * mu_x * mu_y + c1) * (2 * sigma_xy + c2)
        denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (sigma_x + sigma_y + c2)
        values.append(float(np.mean(numerator / denominator)))
    return float(np.mean(values))


def pixel_correlation(rendered: np.ndarray, originals: np.ndarray) -> float:
    """Mean absolute Pearson correlation between rendered activations and originals.

    ``rendered`` is ``(N, h, w)`` (activation renderings, any spatial size
    dividing the original); ``originals`` is ``(N, C, H, W)`` raw images.
    The originals are converted to grayscale and the renderings are
    upsampled to match before correlating per sample.
    """
    rendered = np.asarray(rendered)
    originals = np.asarray(originals)
    grayscale = originals.mean(axis=1)
    target = grayscale.shape[-1]
    if rendered.shape[-1] != target:
        rendered = upsample_nearest(rendered, target)
    correlations = []
    for sample_rendered, sample_gray in zip(rendered, grayscale):
        x = sample_rendered.reshape(-1)
        y = sample_gray.reshape(-1)
        x = x - x.mean()
        y = y - y.mean()
        denominator = np.sqrt((x ** 2).sum() * (y ** 2).sum())
        if denominator < 1e-12:
            correlations.append(0.0)
        else:
            correlations.append(abs(float((x * y).sum() / denominator)))
    return float(np.mean(correlations))


# --------------------------------------------------------------------------- #
# Reconstruction attack
# --------------------------------------------------------------------------- #
class LinearReconstructionAttack:
    """Ridge-regression inversion from smashed activations to raw pixels.

    Models an honest-but-curious server that has somehow obtained a set of
    (activation, raw image) pairs — e.g. from a public dataset pushed
    through a stolen client segment — and fits a linear inverter.  The
    quality of the reconstructions it achieves on *unseen* activations
    bounds how much pixel information the smashed representation leaks to
    a linear adversary.

    Parameters
    ----------
    ridge:
        Tikhonov regularization strength (protects the fit when the
        activation dimensionality exceeds the number of attack samples).
    """

    def __init__(self, ridge: float = 1e-3) -> None:
        if ridge < 0:
            raise ValueError("ridge must be non-negative")
        self.ridge = ridge
        self._weights: Optional[np.ndarray] = None
        self._bias: Optional[np.ndarray] = None
        self._image_shape: Optional[Tuple[int, ...]] = None

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has been called."""
        return self._weights is not None

    def fit(self, activations: np.ndarray, images: np.ndarray) -> "LinearReconstructionAttack":
        """Fit the inverter on (activation, image) pairs."""
        activations = np.asarray(activations, dtype=np.float64)
        images = np.asarray(images, dtype=np.float64)
        if activations.shape[0] != images.shape[0]:
            raise ValueError("activations and images must have the same number of samples")
        if activations.shape[0] < 2:
            raise ValueError("need at least two samples to fit the attack")
        features = activations.reshape(activations.shape[0], -1)
        targets = images.reshape(images.shape[0], -1)
        self._image_shape = images.shape[1:]

        feature_mean = features.mean(axis=0)
        target_mean = targets.mean(axis=0)
        centered_features = features - feature_mean
        centered_targets = targets - target_mean

        gram = centered_features.T @ centered_features
        gram[np.diag_indices_from(gram)] += self.ridge * max(features.shape[0], 1)
        cross = centered_features.T @ centered_targets
        self._weights = np.linalg.solve(gram, cross)
        self._bias = target_mean - feature_mean @ self._weights
        return self

    def reconstruct(self, activations: np.ndarray) -> np.ndarray:
        """Invert activations back into image space."""
        if not self.is_fitted:
            raise RuntimeError("attack must be fitted before reconstructing")
        features = np.asarray(activations, dtype=np.float64).reshape(activations.shape[0], -1)
        flat = features @ self._weights + self._bias
        return flat.reshape(activations.shape[0], *self._image_shape)

    def evaluate(self, activations: np.ndarray, images: np.ndarray) -> Dict[str, float]:
        """Reconstruction quality on held-out pairs (lower quality = better privacy)."""
        reconstructions = self.reconstruct(activations)
        images = np.asarray(images, dtype=np.float64)
        gray_reference = images.mean(axis=1) if images.ndim == 4 else images
        gray_reconstruction = (
            reconstructions.mean(axis=1) if reconstructions.ndim == 4 else reconstructions
        )
        return {
            "reconstruction_nmse": normalized_mse(images, reconstructions),
            "reconstruction_psnr": psnr(images, np.clip(reconstructions, 0.0, 1.0)),
            "reconstruction_ssim": ssim(gray_reference, np.clip(gray_reconstruction, 0.0, 1.0)),
        }


# --------------------------------------------------------------------------- #
# Per-layer leakage profile
# --------------------------------------------------------------------------- #
@dataclass
class LayerLeakage:
    """Leakage metrics of one layer's activations."""

    layer: str
    correlation: float
    reconstruction_nmse: float
    reconstruction_psnr: float
    reconstruction_ssim: float
    activation_shape: Tuple[int, ...] = field(default_factory=tuple)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form (layer name included)."""
        return {
            "layer": self.layer,
            "correlation": self.correlation,
            "reconstruction_nmse": self.reconstruction_nmse,
            "reconstruction_psnr": self.reconstruction_psnr,
            "reconstruction_ssim": self.reconstruction_ssim,
            "activation_shape": tuple(self.activation_shape),
        }


def leakage_report(
    client_model: Sequential,
    images: np.ndarray,
    attack_fraction: float = 0.5,
    ridge: float = 1e-3,
) -> List[LayerLeakage]:
    """Quantify how much of the raw image leaks from every client-side layer.

    Parameters
    ----------
    client_model:
        The end-system's segment (e.g. ``L1_conv → L1_relu → L1_pool``).
    images:
        Raw images ``(N, C, H, W)``; the first ``attack_fraction`` of them
        train the reconstruction attack, the rest evaluate it.
    ridge:
        Regularization of the linear inverter.

    Returns
    -------
    One :class:`LayerLeakage` entry for the raw input (layer name
    ``"input"``) followed by one per client layer, in forward order.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) images, got shape {images.shape}")
    if not 0.0 < attack_fraction < 1.0:
        raise ValueError("attack_fraction must be in (0, 1)")
    split = int(round(images.shape[0] * attack_fraction))
    split = min(max(split, 2), images.shape[0] - 2)

    with no_grad():
        activations = client_model.forward_collect(Tensor(images))

    report: List[LayerLeakage] = []

    def analyse(layer_name: str, layer_activations: np.ndarray) -> LayerLeakage:
        if layer_activations.ndim == 4:
            rendered = activation_to_images(layer_activations)
        else:
            # Dense activations have no spatial structure; render as a
            # square-ish image purely for the correlation metric.
            side = int(np.ceil(np.sqrt(layer_activations.shape[1])))
            padded = np.zeros((layer_activations.shape[0], side * side),
                              dtype=layer_activations.dtype)
            padded[:, :layer_activations.shape[1]] = layer_activations
            rendered = padded.reshape(-1, side, side)
        correlation = (
            pixel_correlation(rendered, images)
            if rendered.shape[-1] <= images.shape[-1] and images.shape[-1] % rendered.shape[-1] == 0
            else 0.0
        )
        attack = LinearReconstructionAttack(ridge=ridge)
        attack.fit(layer_activations[:split], images[:split])
        metrics = attack.evaluate(layer_activations[split:], images[split:])
        return LayerLeakage(
            layer=layer_name,
            correlation=correlation,
            reconstruction_nmse=metrics["reconstruction_nmse"],
            reconstruction_psnr=metrics["reconstruction_psnr"],
            reconstruction_ssim=metrics["reconstruction_ssim"],
            activation_shape=tuple(layer_activations.shape[1:]),
        )

    report.append(analyse("input", images))
    for layer_name, activation in activations.items():
        report.append(analyse(layer_name, activation.data))
    return report
