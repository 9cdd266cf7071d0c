"""The normalize-once loader yields what the transform-per-batch one did.

``reference_loader.reference_epoch`` is the parent's ``__iter__`` verbatim;
the grid below requires byte-equal batches (dtype and shape included) from
the current :class:`DataLoader`, which normalizes the whole local array once
and indexes each batch out of the result.
"""

import numpy as np
import pytest

from reference_loader import reference_epoch
from repro.data.datasets import Subset, SyntheticCIFAR10
from repro.data.loader import DataLoader
from repro.data.transforms import Normalize

NORMALIZE = dict(mean=[0.4, 0.5, 0.6], std=[0.2, 0.25, 0.3])


def make_transform(kind):
    """A fresh transform per loader.

    ``scalar-normalize`` is ``Normalize()``'s one-element default, which
    broadcasts to every channel.
    """
    if kind == "none":
        return None
    return Normalize() if kind == "scalar-normalize" else Normalize(**NORMALIZE)


@pytest.fixture(scope="module")
def dataset():
    # 75 of 90 samples through a Subset: neither 7 nor 32 divides it.
    full = SyntheticCIFAR10(num_samples=90, image_size=8, seed=4)
    return Subset(full, np.random.default_rng(2).permutation(90)[:75])


def assert_same_batch(got, expected):
    for new, old in zip(got, expected):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old)


class TestLoaderExact:
    @pytest.mark.parametrize("kind", ["none", "normalize", "scalar-normalize"])
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    @pytest.mark.parametrize("drop_last", [False, True])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_two_epochs_match_the_parent_iter(self, dataset, shuffle, drop_last,
                                              batch_size, kind):
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=shuffle,
                            drop_last=drop_last, transform=make_transform(kind), seed=5)
        reference_transform = make_transform(kind)
        for epoch in range(2):
            got = list(loader)
            expected = list(reference_epoch(dataset, batch_size, shuffle, drop_last,
                                            reference_transform, 5, epoch))
            assert len(got) == len(expected) == len(loader)
            for new, old in zip(got, expected):
                assert_same_batch(new, old)
            assert sum(len(labels) for _, labels in got) == loader.num_samples

    def test_set_epoch_replays_an_epoch_after_the_one_time_transform(self, dataset):
        loader = DataLoader(dataset, batch_size=7, transform=make_transform("normalize"),
                            seed=3)
        list(loader)
        loader.set_epoch(4)
        expected = reference_epoch(dataset, 7, True, False, make_transform("normalize"), 3, 4)
        for new, old in zip(loader, expected):
            assert_same_batch(new, old)


class CountingNormalize(Normalize):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def __call__(self, batch):
        self.calls.append(batch.shape[0])
        return super().__call__(batch)


class TestNormalizeOnce:
    def test_transform_runs_once_and_only_when_iterated(self, dataset):
        transform = CountingNormalize(**NORMALIZE)
        loader = DataLoader(dataset, batch_size=1, transform=transform, seed=0)
        assert transform.calls == []  # building a loader transforms nothing
        loader.set_epoch(0)
        assert (len(loader), loader.num_samples, transform.calls) == (75, 75, [])
        for _ in range(3):
            assert len(list(loader)) == 75
        assert transform.calls == [75]  # the whole local array, once

    def test_the_dataset_arrays_are_left_untouched(self):
        full = SyntheticCIFAR10(num_samples=40, image_size=8, seed=1)
        before = full.images.copy()
        loader = DataLoader(full, batch_size=8, transform=Normalize(**NORMALIZE), seed=0)
        for images, _ in loader:
            images *= 0.0  # a consumer scribbling on its batch
        assert np.array_equal(full.images, before)


class TestBatchOwnership:
    def test_batches_never_alias_each_other_or_the_loaders_array(self, dataset):
        loader = DataLoader(dataset, batch_size=7, transform=Normalize(**NORMALIZE), seed=0)
        batches = list(loader)
        for (left, _), (right, _) in zip(batches, batches[1:]):
            assert not np.shares_memory(left, right)
        for images, labels in batches:
            assert not np.shares_memory(images, loader._images)
            assert not np.shares_memory(labels, loader._labels)

    def test_a_scribbled_batch_changes_nothing_later(self, dataset):
        """What the engine keeps (a copy, or the Tensor cast) never changes
        when a batch is modified in place, and neither does a later epoch."""
        loader = DataLoader(dataset, batch_size=1, transform=Normalize(**NORMALIZE), seed=0)
        kept = []
        for images, labels in loader:
            kept.append((np.array(images, dtype=np.float32), labels.copy()))
            images[...] = -7.0
            labels[...] = -1
        for epoch, got in ((0, kept), (1, list(loader))):
            reference = reference_epoch(dataset, 1, True, False,
                                        Normalize(**NORMALIZE), 0, epoch)
            for (images, labels), (old_images, old_labels) in zip(got, reference):
                assert np.array_equal(images, old_images.astype(images.dtype))
                assert np.array_equal(labels, old_labels)
