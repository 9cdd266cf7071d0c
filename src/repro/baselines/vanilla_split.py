"""Vanilla (single-end-system) split learning baseline.

This is the setting of the paper's Fig. 1 and of Vepakomma et al. (2018):
*one* end-system holds the first layers and its data, the server holds
the rest.  When several institutions participate they must take turns —
the model is trained on institution 1's data, then the client weights are
handed to institution 2, and so on (the "peer-to-peer"/sequential
protocol from the split-learning literature).  Spatio-temporal split
learning removes that serialization by letting every end-system stream
activations into one shared server queue; this baseline is what it is
compared against.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.datasets import Dataset
from ..data.loader import DataLoader
from ..data.transforms import Normalize
from ..nn import Tensor
from ..nn.losses import get_loss
from ..nn.metrics import MetricTracker, accuracy
from ..nn.optim import get_optimizer
from ..utils.logging import get_logger
from ..core.history import EpochRecord, TrainingHistory
from ..core.split import SplitSpec
from .evaluation import evaluate_forward

__all__ = ["SequentialSplitTrainer"]

logger = get_logger("baselines.vanilla_split")


class SequentialSplitTrainer:
    """Split learning with a single shared client segment visited in turns.

    Parameters
    ----------
    split_spec:
        Architecture and cut (the same object the spatio-temporal trainer
        uses, so comparisons are apples-to-apples).
    client_datasets:
        The institutions' local datasets, visited round-robin each epoch.
    """

    def __init__(
        self,
        split_spec: SplitSpec,
        client_datasets: Sequence[Dataset],
        client_optimizer: str = "adam",
        client_lr: float = 1e-3,
        server_optimizer: str = "adam",
        server_lr: float = 1e-3,
        loss_name: str = "cross_entropy",
        batch_size: int = 32,
        seed: int = 0,
        transform: Optional[Normalize] = None,
    ) -> None:
        if not client_datasets:
            raise ValueError("need at least one client dataset")
        if split_spec.client_blocks == 0:
            raise ValueError("vanilla split learning requires at least one client block")
        self.split_spec = split_spec
        self.batch_size = batch_size
        self.transform = transform
        # One shared client segment handed from institution to institution.
        self.client_model = split_spec.build_client_segment(seed=seed)
        self.server_model = split_spec.build_server_segment(seed=seed + 1)
        self.client_optimizer = get_optimizer(
            client_optimizer, self.client_model.parameters(), lr=client_lr
        )
        self.server_optimizer = get_optimizer(
            server_optimizer, self.server_model.parameters(), lr=server_lr
        )
        self.loss_fn = get_loss(loss_name)
        self.loaders: List[DataLoader] = [
            DataLoader(dataset, batch_size=batch_size, shuffle=True,
                       transform=transform, seed=seed + index)
            for index, dataset in enumerate(client_datasets)
        ]

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _train_batch(self, images: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
        # No gradient for the raw images: nobody reads it.
        client_output = self.client_model(Tensor(images))
        smashed = Tensor(client_output.data.copy(), requires_grad=True)
        logits = self.server_model(smashed)
        loss = self.loss_fn(logits, labels)

        self.server_optimizer.zero_grad()
        self.client_optimizer.zero_grad()
        loss.backward()
        self.server_optimizer.step()
        # Relay the boundary gradient back through the client-side graph.
        client_output.backward(smashed.grad)
        self.client_optimizer.step()
        return {"loss": float(loss.item()), "accuracy": accuracy(logits, labels)}

    def train_epoch(self, epoch: int) -> Dict[str, float]:
        """One epoch: visit every institution in turn, exhausting its data."""
        tracker = MetricTracker()
        for loader in self.loaders:
            loader.set_epoch(epoch)
            for images, labels in loader:
                metrics = self._train_batch(images, labels)
                tracker.update(metrics, count=images.shape[0])
        return tracker.averages()

    def evaluate(self, dataset: Dataset, batch_size: int = 128) -> Dict[str, float]:
        """Loss and accuracy of the combined client+server model."""
        return evaluate_forward(
            lambda images: self.server_model(self.client_model(images)), self.loss_fn,
            dataset, batch_size, self.transform)

    def fit(self, test_dataset: Optional[Dataset] = None, epochs: int = 10) -> TrainingHistory:
        """Train for ``epochs`` rounds of sequential institution visits."""
        history = TrainingHistory(config={
            "baseline": "sequential_split",
            "epochs": epochs,
            "client_blocks": self.split_spec.client_blocks,
            "num_clients": len(self.loaders),
        })
        for epoch in range(epochs):
            start = time.perf_counter()
            averages = self.train_epoch(epoch)
            record = EpochRecord(
                epoch=epoch,
                train_loss=averages["loss"],
                train_accuracy=averages["accuracy"],
                wall_time_s=time.perf_counter() - start,
            )
            if test_dataset is not None:
                evaluation = self.evaluate(test_dataset)
                record.test_loss = evaluation["loss"]
                record.test_accuracy = evaluation["accuracy"]
            history.append(record)
            logger.info(
                "sequential split epoch %d: train_acc=%.4f test_acc=%s",
                epoch, record.train_accuracy,
                f"{record.test_accuracy:.4f}" if record.test_accuracy is not None else "n/a",
            )
        return history
