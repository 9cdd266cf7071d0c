"""Datasets, loaders, normalization and multi-end-system partitioners."""

from .datasets import (
    ArrayDataset,
    Dataset,
    Subset,
    SyntheticCIFAR10,
    SyntheticImageDataset,
    SyntheticMNIST,
    train_test_split,
)
from .loader import DataLoader
from .partition import (
    DirichletPartitioner,
    IIDPartitioner,
    LabelShardPartitioner,
    Partitioner,
    QuantitySkewPartitioner,
    get_partitioner,
    partition_summary,
)
from .transforms import Normalize

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "SyntheticImageDataset",
    "SyntheticCIFAR10",
    "SyntheticMNIST",
    "train_test_split",
    "DataLoader",
    "Normalize",
    "Partitioner",
    "IIDPartitioner",
    "DirichletPartitioner",
    "LabelShardPartitioner",
    "QuantitySkewPartitioner",
    "partition_summary",
    "get_partitioner",
]
