"""Centralized training baseline.

This is the first row of the paper's Table I — "Nothing (All layers are
in the server)": every layer lives on the server and all raw training
data is uploaded, so there is no privacy but also no split-induced
accuracy loss.  Split-learning configurations are compared against this
upper bound.
"""

from __future__ import annotations

import time
from typing import Dict, Optional


from ..data.datasets import Dataset
from ..data.loader import DataLoader
from ..data.transforms import Normalize
from ..nn import Sequential, Tensor
from ..nn.losses import get_loss
from ..nn.metrics import MetricTracker, accuracy
from ..nn.optim import get_optimizer
from ..utils.logging import get_logger
from ..core.history import EpochRecord, TrainingHistory
from .evaluation import evaluate_forward

__all__ = ["CentralizedTrainer"]

logger = get_logger("baselines.centralized")


class CentralizedTrainer:
    """Plain single-machine training of a full model on pooled data.

    Parameters
    ----------
    model:
        The full network (e.g. ``paper_cnn_architecture().build(seed=0)``).
    optimizer_name / optimizer_kwargs:
        Optimizer configuration for all parameters.
    loss_name:
        Training loss.
    """

    def __init__(
        self,
        model: Sequential,
        optimizer_name: str = "adam",
        optimizer_kwargs: Optional[Dict] = None,
        loss_name: str = "cross_entropy",
    ) -> None:
        self.model = model
        optimizer_kwargs = dict(optimizer_kwargs or {"lr": 1e-3})
        self.optimizer = get_optimizer(optimizer_name, model.parameters(), **optimizer_kwargs)
        self.loss_fn = get_loss(loss_name)

    def train_epoch(self, loader: DataLoader, epoch: int = 0) -> Dict[str, float]:
        """Run one epoch over ``loader`` and return averaged metrics."""
        loader.set_epoch(epoch)
        tracker = MetricTracker()
        for images, labels in loader:
            self.optimizer.zero_grad()
            logits = self.model(Tensor(images))
            loss = self.loss_fn(logits, labels)
            loss.backward()
            self.optimizer.step()
            tracker.update(
                {"loss": float(loss.item()), "accuracy": accuracy(logits, labels)},
                count=images.shape[0],
            )
        return tracker.averages()

    def evaluate(self, dataset: Dataset, batch_size: int = 128,
                 transform: Optional[Normalize] = None) -> Dict[str, float]:
        """Loss and accuracy on a held-out dataset."""
        return evaluate_forward(self.model, self.loss_fn, dataset, batch_size, transform)

    def fit(
        self,
        train_dataset: Dataset,
        test_dataset: Optional[Dataset] = None,
        epochs: int = 10,
        batch_size: int = 32,
        transform: Optional[Normalize] = None,
        seed: int = 0,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes over the pooled dataset."""
        loader = DataLoader(
            train_dataset, batch_size=batch_size, shuffle=True, transform=transform, seed=seed
        )
        history = TrainingHistory(config={
            "baseline": "centralized", "epochs": epochs, "batch_size": batch_size,
        })
        for epoch in range(epochs):
            start = time.perf_counter()
            averages = self.train_epoch(loader, epoch)
            record = EpochRecord(
                epoch=epoch,
                train_loss=averages["loss"],
                train_accuracy=averages["accuracy"],
                wall_time_s=time.perf_counter() - start,
                samples=loader.num_samples,
            )
            if test_dataset is not None:
                evaluation = self.evaluate(test_dataset, transform=transform)
                record.test_loss = evaluation["loss"]
                record.test_accuracy = evaluation["accuracy"]
            history.append(record)
            logger.info(
                "centralized epoch %d: train_acc=%.4f test_acc=%s",
                epoch, record.train_accuracy,
                f"{record.test_accuracy:.4f}" if record.test_accuracy is not None else "n/a",
            )
        return history
