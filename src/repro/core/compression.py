"""Compression and perturbation of the smashed activations (extension).

The paper ships the first block's activations to the server uncompressed.
Two natural extensions from the split-learning literature — beyond the
paper's evaluation; README.md lists them with the experiments as the
``compression`` ablation — are implemented here:

* **Compression** reduces the uplink volume of every activation message:
  :class:`Uint8Quantizer` (8-bit affine quantization, 8x smaller than
  float64, 4x smaller than float32) and :class:`TopKSparsifier` (keep
  only the largest-magnitude fraction of entries).
* **Perturbation** improves privacy at the cut:
  :class:`GaussianNoisePerturbation` clips each sample's activation norm
  and adds calibrated Gaussian noise (the Gaussian mechanism used by
  DP-SGD-style defenses).

All transforms implement the :class:`ActivationTransform` interface:
``apply`` returns the (lossy) activations the server will train on, in the
input's dtype, plus the number of bytes that cross the wire.  A transform
is a cut-layer *codec*: set as an
:class:`~repro.core.end_system.EndSystem`'s ``codec``, it encodes every
activation message that end-system ships, and the message's
``size_bytes`` is the codec's wire bytes plus labels and framing — so
links, queues, retries and the traffic log all see the compressed size.  No decode stage exists: ``apply`` already returns what
the server reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationTransform",
    "TransformResult",
    "NoCompression",
    "Uint8Quantizer",
    "TopKSparsifier",
    "GaussianNoisePerturbation",
    "get_transform",
]


@dataclass
class TransformResult:
    """Outcome of applying an activation transform to one batch."""

    activations: np.ndarray
    wire_bytes: int


class ActivationTransform:
    """Base class: maps a batch of smashed activations to what crosses the wire."""

    name = "identity"

    def apply(self, activations: np.ndarray) -> TransformResult:
        """Return the server-visible activations and the wire size in bytes."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoCompression(ActivationTransform):
    """Ship the raw float activations (the paper's setting)."""

    name = "none"

    def apply(self, activations: np.ndarray) -> TransformResult:
        activations = np.asarray(activations)
        return TransformResult(
            activations=activations,
            wire_bytes=int(activations.nbytes),
        )


class Uint8Quantizer(ActivationTransform):
    """Per-batch affine quantization of activations to 8-bit integers.

    The client sends ``round((x - min) / scale)`` as uint8 plus the two
    float parameters; the server de-quantizes before training.  The
    returned activations are the *de-quantized* values, i.e. exactly what
    the server would reconstruct, so downstream accuracy reflects the
    quantization error.
    """

    name = "uint8"

    def __init__(self, levels: int = 256) -> None:
        if not 2 <= levels <= 256:
            raise ValueError("levels must be in [2, 256]")
        self.levels = levels

    def apply(self, activations: np.ndarray) -> TransformResult:
        activations = np.asarray(activations)
        # One byte per entry plus the two float parameters (min, scale).
        wire_bytes = int(activations.size + 16)
        minimum = float(activations.min())
        scale = (float(activations.max()) - minimum) / (self.levels - 1)
        if scale == 0.0:
            return TransformResult(activations=activations.copy(), wire_bytes=wire_bytes)
        quantized = np.clip(np.round((activations - minimum) / scale), 0, self.levels - 1)
        return TransformResult(activations=quantized * scale + minimum, wire_bytes=wire_bytes)


class TopKSparsifier(ActivationTransform):
    """Keep only the largest-magnitude fraction of activation entries.

    The wire carries the surviving values plus their 32-bit indices; the
    server reconstructs a dense tensor with zeros elsewhere.
    """

    name = "topk"

    def __init__(self, keep_fraction: float = 0.25) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        self.keep_fraction = keep_fraction

    def apply(self, activations: np.ndarray) -> TransformResult:
        activations = np.asarray(activations)
        flat = activations.reshape(-1)
        keep = max(1, int(round(flat.size * self.keep_fraction)))
        if keep >= flat.size:
            return NoCompression().apply(activations)
        threshold_index = flat.size - keep
        partition = np.argpartition(np.abs(flat), threshold_index)
        kept_indices = partition[threshold_index:]
        sparse = np.zeros_like(flat)
        sparse[kept_indices] = flat[kept_indices]
        return TransformResult(
            activations=sparse.reshape(activations.shape),
            # One value in the activations' dtype + one uint32 index per entry.
            wire_bytes=int(keep * (activations.itemsize + 4)),
        )


class GaussianNoisePerturbation(ActivationTransform):
    """Clip per-sample activation norms and add Gaussian noise (DP-style defense).

    Each sample's activation vector is scaled down to at most
    ``clip_norm`` in L2 norm, then ``N(0, (noise_multiplier * clip_norm)^2)``
    noise is added element-wise — the Gaussian mechanism, applied at the
    cut so that the server (and any eavesdropper) only ever sees noised
    activations.  Traffic is unchanged; the benefit shows up in the
    leakage metrics and the cost in accuracy.
    """

    name = "gaussian_noise"

    def __init__(self, noise_multiplier: float = 0.5, clip_norm: float = 1.0, *,
                 seed: int) -> None:
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        self.noise_multiplier = noise_multiplier
        self.clip_norm = clip_norm
        self._rng = np.random.default_rng(seed)

    def apply(self, activations: np.ndarray) -> TransformResult:
        activations = np.asarray(activations)
        batch = activations.shape[0]
        flat = activations.reshape(batch, -1)
        norms = np.linalg.norm(flat, axis=1, keepdims=True)
        scales = np.minimum(1.0, self.clip_norm / np.maximum(norms, 1e-12))
        noise = self._rng.normal(0.0, self.noise_multiplier * self.clip_norm,
                                 size=flat.shape)
        noised = flat * scales + noise.astype(flat.dtype, copy=False)
        return TransformResult(
            activations=noised.reshape(activations.shape),
            wire_bytes=int(activations.nbytes),
        )


_TRANSFORMS = {
    "none": NoCompression,
    "uint8": Uint8Quantizer,
    "topk": TopKSparsifier,
    "gaussian_noise": GaussianNoisePerturbation,
}


def get_transform(name: str, **kwargs) -> ActivationTransform:
    """Instantiate an activation transform by name
    (``none``, ``uint8``, ``topk``, ``gaussian_noise``; the last needs ``seed=``)."""
    try:
        return _TRANSFORMS[name.lower()](**kwargs)
    except KeyError:
        known = ", ".join(sorted(_TRANSFORMS))
        raise KeyError(f"unknown transform {name!r}; known transforms: {known}") from None
