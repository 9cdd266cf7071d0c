"""The held-out evaluation loop every baseline shares."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..data.datasets import Dataset
from ..data.transforms import Normalize
from ..nn import Tensor, no_grad
from ..nn.metrics import accuracy

__all__ = ["evaluate_forward"]


def evaluate_forward(forward: Callable[[Tensor], Tensor], loss_fn: Callable,
                     dataset: Dataset, batch_size: int = 128,
                     transform: Optional[Normalize] = None) -> Dict[str, float]:
    """Sample-weighted loss and accuracy of ``forward`` over ``dataset``.

    ``forward`` maps a batch of images to logits; it runs without a graph,
    ``batch_size`` images at a time, on ``dataset``'s images normalized by
    ``transform`` when one is given.
    """
    images, labels = dataset.arrays()
    if transform is not None:
        images = transform(images)
    total_loss, total_correct, total = 0.0, 0.0, 0
    for start in range(0, images.shape[0], batch_size):
        stop = start + batch_size
        batch_images, batch_labels = images[start:stop], labels[start:stop]
        with no_grad():
            logits = forward(Tensor(batch_images))
            loss = loss_fn(logits, batch_labels)
        total_loss += float(loss.item()) * batch_images.shape[0]
        total_correct += accuracy(logits, batch_labels) * batch_images.shape[0]
        total += batch_images.shape[0]
    return {"loss": total_loss / total, "accuracy": total_correct / total}
