"""Tests for the DataLoader and Normalize."""

import numpy as np
import pytest

from repro.data.datasets import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.transforms import Normalize


@pytest.fixture
def image_dataset(rng):
    return ArrayDataset(rng.random((50, 3, 8, 8)), rng.integers(0, 5, 50))


class TestDataLoader:
    def test_batches_have_requested_size(self, image_dataset):
        loader = DataLoader(image_dataset, batch_size=16, shuffle=False)
        batches = list(loader)
        assert [images.shape[0] for images, _ in batches] == [16, 16, 16, 2]
        assert len(loader) == 4

    def test_drop_last(self, image_dataset):
        loader = DataLoader(image_dataset, batch_size=16, drop_last=True, shuffle=False)
        assert len(loader) == 3
        assert all(images.shape[0] == 16 for images, _ in loader)
        assert loader.num_samples == 48

    def test_covers_every_sample_once(self, image_dataset):
        loader = DataLoader(image_dataset, batch_size=7, shuffle=True, seed=0)
        labels = np.concatenate([batch_labels for _, batch_labels in loader])
        np.testing.assert_array_equal(np.sort(labels), np.sort(image_dataset.labels))

    def test_shuffling_changes_across_epochs_but_is_deterministic(self, image_dataset):
        loader_a = DataLoader(image_dataset, batch_size=50, shuffle=True, seed=3)
        loader_b = DataLoader(image_dataset, batch_size=50, shuffle=True, seed=3)
        first_a = next(iter(loader_a))[1]
        first_b = next(iter(loader_b))[1]
        np.testing.assert_array_equal(first_a, first_b)
        second_a = next(iter(loader_a))[1]
        assert not np.array_equal(first_a, second_a)

    def test_set_epoch_reproduces_order(self, image_dataset):
        loader = DataLoader(image_dataset, batch_size=50, shuffle=True, seed=1)
        loader.set_epoch(5)
        first = next(iter(loader))[1]
        loader.set_epoch(5)
        second = next(iter(loader))[1]
        np.testing.assert_array_equal(first, second)

    def test_no_shuffle_preserves_order(self, image_dataset):
        loader = DataLoader(image_dataset, batch_size=50, shuffle=False)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, image_dataset.labels)

    def test_transform_applied(self, image_dataset):
        loader = DataLoader(image_dataset, batch_size=10, shuffle=False,
                            transform=Normalize(mean=[0.5] * 3, std=[0.5] * 3))
        images, _ = next(iter(loader))
        assert images.min() < 0  # normalization shifted the [0,1] data

    def test_validation(self, image_dataset):
        with pytest.raises(ValueError):
            DataLoader(image_dataset, batch_size=0)
        empty = ArrayDataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            DataLoader(empty)


class TestNormalize:
    def test_normalize_statistics(self, rng):
        batch = rng.random((20, 3, 8, 8))
        transform = Normalize(mean=batch.mean(axis=(0, 2, 3)), std=batch.std(axis=(0, 2, 3)))
        normalized = transform(batch)
        np.testing.assert_allclose(normalized.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(normalized.std(axis=(0, 2, 3)), np.ones(3), atol=1e-6)

    def test_normalize_rejects_zero_std(self):
        with pytest.raises(ValueError):
            Normalize(mean=[0.0], std=[0.0])
