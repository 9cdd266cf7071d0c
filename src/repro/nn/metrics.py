"""Classification metrics used by the training loops and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

from .tensor import Tensor

__all__ = ["accuracy", "MetricTracker"]


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
