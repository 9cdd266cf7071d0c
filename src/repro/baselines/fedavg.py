"""Federated averaging (FedAvg) baseline.

The paper positions split learning as one member of the federated-
learning family ("among various federated learning algorithms, this paper
considers split learning").  FedAvg (McMahan et al., 2017) is the
canonical alternative: every client trains a *complete* local copy of the
model on its own data for a few local epochs and the server averages the
resulting weights, so no activations are exchanged but every client must
be able to run the full network.  The ``baselines`` experiment puts
the two side by side on the same data partition.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.datasets import Dataset
from ..data.loader import DataLoader
from ..data.transforms import Normalize
from ..nn import Sequential, Tensor
from ..nn.losses import get_loss
from ..nn.metrics import MetricTracker, accuracy
from ..nn.optim import get_optimizer
from ..utils.logging import get_logger
from ..core.history import EpochRecord, TrainingHistory
from ..core.models import CNNArchitecture
from .evaluation import evaluate_forward

__all__ = ["FedAvgTrainer", "average_state_dicts"]

logger = get_logger("baselines.fedavg")


def average_state_dicts(states: Sequence[Dict[str, np.ndarray]],
                        weights: Optional[Sequence[float]] = None) -> Dict[str, np.ndarray]:
    """Weighted average of parameter dictionaries (FedAvg aggregation step)."""
    if not states:
        raise ValueError("need at least one state dict to average")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights and states must have the same length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    keys = states[0].keys()
    for state in states[1:]:
        if state.keys() != keys:
            raise ValueError("state dicts have mismatching keys")
    averaged: Dict[str, np.ndarray] = {}
    for key in keys:
        stacked = np.stack([state[key] * (weight / total)
                            for state, weight in zip(states, weights)])
        averaged[key] = stacked.sum(axis=0)
    return averaged


class FedAvgTrainer:
    """Federated averaging over the same client partition used for split learning.

    Parameters
    ----------
    architecture:
        Full-model factory (every client instantiates a complete copy).
    client_datasets:
        The clients' local datasets.
    local_epochs:
        Local passes each client performs per communication round.
    """

    def __init__(
        self,
        architecture: CNNArchitecture,
        client_datasets: Sequence[Dataset],
        optimizer_name: str = "sgd",
        lr: float = 0.05,
        local_epochs: int = 1,
        loss_name: str = "cross_entropy",
        batch_size: int = 32,
        seed: int = 0,
        transform: Optional[Normalize] = None,
    ) -> None:
        if not client_datasets:
            raise ValueError("need at least one client dataset")
        if local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        self.architecture = architecture
        self.global_model: Sequential = architecture.build(seed=seed)
        self.optimizer_name = optimizer_name
        self.lr = lr
        self.local_epochs = local_epochs
        self.loss_fn = get_loss(loss_name)
        self.batch_size = batch_size
        self.seed = seed
        self.transform = transform
        self.loaders: List[DataLoader] = [
            DataLoader(dataset, batch_size=batch_size, shuffle=True,
                       transform=transform, seed=seed + index)
            for index, dataset in enumerate(client_datasets)
        ]
        self.client_sizes = [len(dataset) for dataset in client_datasets]

    # ------------------------------------------------------------------ #
    # One communication round
    # ------------------------------------------------------------------ #
    def _local_update(self, loader: DataLoader, round_index: int) -> Dict[str, object]:
        """Train a fresh local copy starting from the global weights."""
        local_model = self.architecture.build(seed=self.seed)
        local_model.load_state_dict(self.global_model.state_dict())
        optimizer = get_optimizer(self.optimizer_name, local_model.parameters(), lr=self.lr)
        tracker = MetricTracker()
        for local_epoch in range(self.local_epochs):
            loader.set_epoch(round_index * self.local_epochs + local_epoch)
            for images, labels in loader:
                optimizer.zero_grad()
                logits = local_model(Tensor(images))
                loss = self.loss_fn(logits, labels)
                loss.backward()
                optimizer.step()
                tracker.update(
                    {"loss": float(loss.item()), "accuracy": accuracy(logits, labels)},
                    count=images.shape[0],
                )
        return {"state": local_model.state_dict(), "metrics": tracker.averages()}

    def train_round(self, round_index: int) -> Dict[str, float]:
        """One FedAvg round: local training on every client + weighted averaging."""
        states = []
        tracker = MetricTracker()
        for loader, size in zip(self.loaders, self.client_sizes):
            result = self._local_update(loader, round_index)
            states.append(result["state"])
            tracker.update(result["metrics"], count=size)
        averaged = average_state_dicts(states, weights=self.client_sizes)
        self.global_model.load_state_dict(averaged)
        return tracker.averages()

    # ------------------------------------------------------------------ #
    # Evaluation / full run
    # ------------------------------------------------------------------ #
    def evaluate(self, dataset: Dataset, batch_size: int = 128) -> Dict[str, float]:
        """Loss and accuracy of the current global model."""
        return evaluate_forward(self.global_model, self.loss_fn, dataset, batch_size,
                                self.transform)

    def fit(self, test_dataset: Optional[Dataset] = None, rounds: int = 10) -> TrainingHistory:
        """Run ``rounds`` communication rounds."""
        history = TrainingHistory(config={
            "baseline": "fedavg",
            "rounds": rounds,
            "local_epochs": self.local_epochs,
            "num_clients": len(self.loaders),
        })
        for round_index in range(rounds):
            start = time.perf_counter()
            averages = self.train_round(round_index)
            record = EpochRecord(
                epoch=round_index,
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
                "fedavg round %d: train_acc=%.4f test_acc=%s",
                round_index, record.train_accuracy,
                f"{record.test_accuracy:.4f}" if record.test_accuracy is not None else "n/a",
            )
        return history
