"""Classification metrics used by the training loops and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from .tensor import Tensor

__all__ = [
    "accuracy",
    "top_k_accuracy",
    "confusion_matrix",
    "per_class_accuracy",
    "MetricTracker",
]


def _as_logits(predictions: Union[Tensor, np.ndarray]) -> np.ndarray:
    return predictions.data if isinstance(predictions, Tensor) else np.asarray(predictions)


def _as_labels(labels: Union[Tensor, np.ndarray]) -> np.ndarray:
    data = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    return data.astype(np.int64).reshape(-1)


def accuracy(predictions: Union[Tensor, np.ndarray], labels: Union[Tensor, np.ndarray]) -> float:
    """Fraction of samples whose arg-max prediction equals the label."""
    logits = _as_logits(predictions)
    labels = _as_labels(labels)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError(
            f"batch mismatch: {logits.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    if logits.shape[0] == 0:
        return 0.0
    predicted = logits.argmax(axis=-1)
    return float((predicted == labels).mean())


def top_k_accuracy(predictions: Union[Tensor, np.ndarray], labels: Union[Tensor, np.ndarray],
                   k: int = 5) -> float:
    """Fraction of samples whose label is among the top-``k`` predictions."""
    logits = _as_logits(predictions)
    labels = _as_labels(labels)
    if k <= 0:
        raise ValueError("k must be positive")
    if logits.shape[0] == 0:
        return 0.0
    k = min(k, logits.shape[-1])
    top_k = np.argsort(logits, axis=-1)[:, -k:]
    hits = (top_k == labels[:, None]).any(axis=-1)
    return float(hits.mean())


def confusion_matrix(predictions: Union[Tensor, np.ndarray], labels: Union[Tensor, np.ndarray],
                     num_classes: Optional[int] = None) -> np.ndarray:
    """Return the ``(num_classes, num_classes)`` confusion matrix.

    Rows are true labels, columns are predicted labels.
    """
    logits = _as_logits(predictions)
    labels = _as_labels(labels)
    predicted = logits.argmax(axis=-1) if logits.ndim > 1 else logits.astype(np.int64)
    if num_classes is None:
        num_classes = int(max(predicted.max(initial=0), labels.max(initial=0))) + 1
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, predicted), 1)
    return matrix


def per_class_accuracy(predictions: Union[Tensor, np.ndarray], labels: Union[Tensor, np.ndarray],
                       num_classes: Optional[int] = None) -> np.ndarray:
    """Per-class recall (diagonal of the row-normalized confusion matrix)."""
    matrix = confusion_matrix(predictions, labels, num_classes)
    totals = matrix.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_class = np.where(totals > 0, matrix.diagonal() / np.maximum(totals, 1), 0.0)
    return per_class


@dataclass
class MetricTracker:
    """Running average of named scalar metrics, weighted by batch size.

    Example
    -------
    >>> tracker = MetricTracker()
    >>> tracker.update({"loss": 2.1, "accuracy": 0.3}, count=32)
    >>> tracker.update({"loss": 1.9, "accuracy": 0.4}, count=32)
    >>> round(tracker.average("loss"), 2)
    2.0
    """

    _totals: Dict[str, float] = field(default_factory=dict)
    _counts: Dict[str, int] = field(default_factory=dict)

    def update(self, values: Dict[str, float], count: int = 1) -> None:
        """Add a batch of metric values weighted by ``count`` samples."""
        if count <= 0:
            raise ValueError("count must be positive")
        for name, value in values.items():
            self._totals[name] = self._totals.get(name, 0.0) + float(value) * count
            self._counts[name] = self._counts.get(name, 0) + count

    def average(self, name: str) -> float:
        """Weighted average of metric ``name`` over all updates."""
        if name not in self._totals:
            raise KeyError(f"metric {name!r} has not been recorded")
        return self._totals[name] / self._counts[name]

    def averages(self) -> Dict[str, float]:
        """Weighted averages of every recorded metric."""
        return {name: self.average(name) for name in self._totals}

    def reset(self) -> None:
        """Clear all recorded values."""
        self._totals.clear()
        self._counts.clear()
