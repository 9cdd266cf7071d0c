"""Partitioning a dataset across multiple end-systems.

The "spatial" dimension of spatio-temporal split learning is that training
data lives on *M* geographically separated end-systems (hospitals in the
paper's motivating scenario) and never leaves them.  These partitioners
decide which samples each end-system holds:

* :class:`IIDPartitioner` — samples are spread uniformly at random; every
  end-system sees the same class distribution (the setting Table I uses).
* :class:`DirichletPartitioner` — class proportions per end-system are
  drawn from a Dirichlet distribution, producing realistic label skew
  (e.g. one hospital sees mostly one disease).
* :class:`LabelShardPartitioner` — each end-system holds only a few
  classes (the pathological non-IID setting from the FedAvg literature).
* :class:`QuantitySkewPartitioner` — IID class mix but very different
  dataset sizes per end-system.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .datasets import Dataset, Subset

__all__ = [
    "Partitioner",
    "IIDPartitioner",
    "DirichletPartitioner",
    "LabelShardPartitioner",
    "QuantitySkewPartitioner",
    "partition_summary",
    "get_partitioner",
]


class Partitioner:
    """Base class: maps a dataset to ``num_parts`` disjoint subsets."""

    def __init__(self, num_parts: int, seed: int = 0) -> None:
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        self.num_parts = num_parts
        self.seed = seed

    def partition(self, dataset: Dataset) -> List[Subset]:
        """Return one :class:`Subset` per part; subsets are disjoint and cover the dataset."""
        index_groups = self.partition_indices(dataset)
        return [Subset(dataset, indices) for indices in index_groups]

    def partition_indices(self, dataset: Dataset) -> List[np.ndarray]:
        raise NotImplementedError

    def _validate(self, dataset: Dataset) -> None:
        if len(dataset) < self.num_parts:
            raise ValueError(
                f"cannot split {len(dataset)} samples across {self.num_parts} parts"
            )


class IIDPartitioner(Partitioner):
    """Uniformly random, equally sized partition (the paper's implicit setting)."""

    def partition_indices(self, dataset: Dataset) -> List[np.ndarray]:
        self._validate(dataset)
        rng = np.random.default_rng(self.seed)
        indices = np.arange(len(dataset), dtype=np.intp)
        rng.shuffle(indices)
        return [np.sort(part) for part in np.array_split(indices, self.num_parts)]


class DirichletPartitioner(Partitioner):
    """Label-skewed partition with per-part class proportions ~ Dirichlet(alpha).

    Small ``alpha`` (e.g. 0.1) produces heavily skewed end-systems; large
    ``alpha`` (e.g. 100) approaches the IID partition.
    """

    def __init__(self, num_parts: int, alpha: float = 0.5, seed: int = 0) -> None:
        super().__init__(num_parts, seed)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def partition_indices(self, dataset: Dataset) -> List[np.ndarray]:
        self._validate(dataset)
        rng = np.random.default_rng(self.seed)
        _, labels = dataset.arrays()
        classes = np.unique(labels)
        part_indices: List[List[int]] = [[] for _ in range(self.num_parts)]

        for cls in classes:
            cls_indices = np.flatnonzero(labels == cls)
            rng.shuffle(cls_indices)
            proportions = rng.dirichlet(
                np.full(self.num_parts, self.alpha, dtype=np.float64)
            )
            # Convert proportions to split points over this class's samples.
            split_points = (np.cumsum(proportions)[:-1] * len(cls_indices)).astype(int)
            for part, chunk in enumerate(np.split(cls_indices, split_points)):
                part_indices[part].extend(chunk.tolist())

        # Guarantee every part is non-empty by stealing from the largest part.
        for part in range(self.num_parts):
            if not part_indices[part]:
                largest = max(range(self.num_parts), key=lambda p: len(part_indices[p]))
                part_indices[part].append(part_indices[largest].pop())
        return [np.sort(np.asarray(indices, dtype=np.int64)) for indices in part_indices]


class LabelShardPartitioner(Partitioner):
    """Each part receives ``shards_per_part`` contiguous label shards.

    With 10 classes, ``num_parts=5`` and ``shards_per_part=2`` every
    end-system sees only 2 classes — the classic pathological non-IID split.
    """

    def __init__(self, num_parts: int, shards_per_part: int = 2, seed: int = 0) -> None:
        super().__init__(num_parts, seed)
        if shards_per_part <= 0:
            raise ValueError("shards_per_part must be positive")
        self.shards_per_part = shards_per_part

    def partition_indices(self, dataset: Dataset) -> List[np.ndarray]:
        self._validate(dataset)
        rng = np.random.default_rng(self.seed)
        _, labels = dataset.arrays()
        # Sort samples by label, then chop into equally sized shards.
        order = np.argsort(labels, kind="stable")
        total_shards = self.num_parts * self.shards_per_part
        if total_shards > len(dataset):
            raise ValueError(
                f"{total_shards} shards requested but only {len(dataset)} samples available"
            )
        shards = np.array_split(order, total_shards)
        shard_ids = np.arange(total_shards, dtype=np.intp)
        rng.shuffle(shard_ids)
        parts = []
        for part in range(self.num_parts):
            chosen = shard_ids[part * self.shards_per_part:(part + 1) * self.shards_per_part]
            indices = np.concatenate([shards[shard] for shard in chosen])
            parts.append(np.sort(indices))
        return parts


class QuantitySkewPartitioner(Partitioner):
    """IID class mix but unbalanced part sizes drawn from Dirichlet(beta)."""

    def __init__(self, num_parts: int, beta: float = 2.0, min_samples: int = 2,
                 seed: int = 0) -> None:
        super().__init__(num_parts, seed)
        if beta <= 0:
            raise ValueError("beta must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        self.beta = beta
        self.min_samples = min_samples

    def partition_indices(self, dataset: Dataset) -> List[np.ndarray]:
        self._validate(dataset)
        rng = np.random.default_rng(self.seed)
        indices = np.arange(len(dataset), dtype=np.intp)
        rng.shuffle(indices)
        reserve = self.min_samples * self.num_parts
        if reserve > len(dataset):
            raise ValueError("min_samples * num_parts exceeds the dataset size")
        proportions = rng.dirichlet(
            np.full(self.num_parts, self.beta, dtype=np.float64)
        )
        spare = len(dataset) - reserve
        sizes = self.min_samples + np.floor(proportions * spare).astype(int)
        # Distribute the rounding remainder to the first parts.
        remainder = len(dataset) - sizes.sum()
        sizes[:remainder] += 1
        parts = []
        cursor = 0
        for size in sizes:
            parts.append(np.sort(indices[cursor:cursor + size]))
            cursor += size
        return parts


def partition_summary(parts: List[Subset], num_classes: Optional[int] = None) -> Dict[int, Dict[str, object]]:
    """Describe a partition: per-part sample count and class histogram."""
    summary: Dict[int, Dict[str, object]] = {}
    for part_id, subset in enumerate(parts):
        _, labels = subset.arrays()
        counts = np.bincount(labels, minlength=num_classes or 0)
        summary[part_id] = {
            "num_samples": int(len(subset)),
            "class_histogram": counts.tolist(),
        }
    return summary


_PARTITIONERS = {
    "iid": IIDPartitioner,
    "dirichlet": DirichletPartitioner,
    "label_shard": LabelShardPartitioner,
    "quantity_skew": QuantitySkewPartitioner,
}


def get_partitioner(name: str, num_parts: int, seed: int = 0, **kwargs) -> Partitioner:
    """Instantiate a partitioner by name (``iid``, ``dirichlet``, ``label_shard``, ``quantity_skew``)."""
    try:
        cls = _PARTITIONERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_PARTITIONERS))
        raise KeyError(f"unknown partitioner {name!r}; known partitioners: {known}") from None
    return cls(num_parts, seed=seed, **kwargs)
