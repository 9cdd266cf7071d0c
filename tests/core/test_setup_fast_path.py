"""Counter guard for set-up and resume — counts, never a clock.

One 200-end-system build (the shape of the ``fanout_async`` benchmark: 3200
8x8 samples, a 1-block CNN) must do work proportional to the data plus the
end-systems, not to their product:

* a client ``Subset`` gathers its rows from the root dataset — the train
  split it hangs off (a non-leaf ``Subset``) is never materialised;
* sample rendering smooths whole blocks: ``gaussian_filter`` runs once per
  block of samples plus once for the class prototypes, not once per sample;
* a client segment constructs only its own blocks — with the cut at 0 no
  end-system constructs a ``Conv2D`` or a ``Dense``;
* ``restore_run_checkpoint`` looks at each array key of a run record once,
  not once per shard and client.

Each assertion fails at the parent commit (``214518b``).
"""

from collections import Counter

import numpy as np
import pytest
import scipy.ndimage

import repro.data.datasets as datasets_module
from repro.core.config import TrainingConfig
from repro.core.models import tiny_cnn_architecture
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import Subset, SyntheticCIFAR10, train_test_split
from repro.data.partition import IIDPartitioner
from repro.nn import Conv2D, Dense
from repro.state.checkpoint import RunCheckpoint

END_SYSTEMS = 200
SAMPLES = 3200
BLOCK = 64  # the rendering block the bound below is stated in


@pytest.fixture(scope="module")
def workload():
    dataset = SyntheticCIFAR10(num_samples=SAMPLES, image_size=8, seed=0,
                               pixel_noise=0.15, deformation_noise=0.3)
    train, _ = train_test_split(dataset, test_fraction=0.0625, seed=0)
    parts = IIDPartitioner(END_SYSTEMS, seed=0).partition(train)
    architecture = tiny_cnn_architecture(image_size=8, num_blocks=1, base_filters=2,
                                         dense_units=8)
    return train, parts, architecture


@pytest.fixture
def counted(monkeypatch):
    """Count ``Subset.arrays`` per instance and Conv2D/Dense construction
    inside ``build_client_segment``."""
    counts = Counter()
    materialised = Counter()
    inside_client = []

    arrays = Subset.arrays

    def counted_arrays(self):
        materialised[id(self)] += 1
        return arrays(self)

    monkeypatch.setattr(Subset, "arrays", counted_arrays)

    build_client_segment = SplitSpec.build_client_segment

    def counted_build(self, *args, **kwargs):
        inside_client.append(True)
        try:
            return build_client_segment(self, *args, **kwargs)
        finally:
            inside_client.pop()

    monkeypatch.setattr(SplitSpec, "build_client_segment", counted_build)

    for layer in (Conv2D, Dense):
        init = layer.__init__

        def counted_init(self, *args, _init=init, _name=layer.__name__, **kwargs):
            if inside_client:
                counts[f"client_{_name}"] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(layer, "__init__", counted_init)
    return counts, materialised


def _trainer(architecture, parts, client_blocks):
    return SpatioTemporalTrainer(
        SplitSpec(architecture, client_blocks=client_blocks), parts,
        TrainingConfig(epochs=1, batch_size=1, mode="asynchronous", seed=0))


def test_gaussian_filter_runs_once_per_block(monkeypatch):
    calls = Counter()
    gaussian_filter = scipy.ndimage.gaussian_filter

    def counted_filter(*args, **kwargs):
        calls["gaussian_filter"] += 1
        return gaussian_filter(*args, **kwargs)

    monkeypatch.setattr(scipy.ndimage, "gaussian_filter", counted_filter)
    SyntheticCIFAR10(num_samples=SAMPLES, image_size=8, seed=0,
                     pixel_noise=0.15, deformation_noise=0.3)
    assert calls["gaussian_filter"] == -(-SAMPLES // BLOCK) + 1  # not SAMPLES + 1
    assert datasets_module._RENDER_BLOCK == BLOCK


def test_no_non_leaf_subset_materialises_its_parent(workload, counted):
    train, parts, architecture = workload
    _, materialised = counted
    trainer = _trainer(architecture, parts, client_blocks=0)
    assert materialised[id(train)] == 0
    assert all(materialised[id(part)] == 1 for part in parts)
    # The loaders still hold exactly their own rows.
    images, labels = train.dataset.arrays()
    for end_system, part in zip(trainer.end_systems, parts):
        rows = train.indices[part.indices]
        assert np.array_equal(end_system.loader._labels, labels[rows])
        assert np.array_equal(end_system.loader._images, images[rows])


@pytest.mark.parametrize("client_blocks, convs, denses", [(0, 0, 0), (1, END_SYSTEMS, 0)])
def test_client_segments_build_only_their_own_layers(workload, counted, client_blocks,
                                                     convs, denses):
    _, parts, architecture = workload
    counts, _ = counted
    trainer = _trainer(architecture, parts, client_blocks)
    assert len(trainer.end_systems) == END_SYSTEMS
    assert counts["client_Conv2D"] == convs
    assert counts["client_Dense"] == denses


class _CountingArrays(dict):
    """A payload mapping that counts every key it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.touches = Counter()

    def items(self):
        for key, value in super().items():
            self.touches[key] += 1
            yield key, value

    def keys(self):
        for key in super().keys():
            self.touches[key] += 1
            yield key

    __iter__ = keys

    def values(self):
        return (value for _, value in self.items())

    def __getitem__(self, key):
        self.touches[key] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.touches[key] += 1
        return super().get(key, default)


def test_restore_touches_each_array_key_once(workload):
    _, parts, architecture = workload
    source = _trainer(architecture, parts, client_blocks=1)
    # Move the source off a fresh build, so the re-capture below can only
    # match if the restore really carried the state over.
    first = source.end_systems[0]
    first.load_state_dict({name: value + 1.0
                           for name, value in first.state_dict().items()})
    for index, end_system in enumerate(source.end_systems):
        end_system.samples_seen = index
    for _, link in source.topology.links():
        link._rng.random()
    source.engine.clock = 1.5
    run = source._capture_run_checkpoint(0)
    arrays = _CountingArrays(run.arrays)
    fresh = _trainer(architecture, parts, client_blocks=1)
    fresh.restore_run_checkpoint(RunCheckpoint(arrays, run.meta))
    assert len(arrays) > 2 * END_SYSTEMS  # weights per client + a link RNG per link
    assert set(arrays.touches) == set(run.arrays)
    assert max(arrays.touches.values()) == 1
    # ... and what it restored re-captures as the same payload.
    again = fresh._capture_run_checkpoint(0)
    assert again.meta == run.meta
    assert list(again.arrays) == list(run.arrays)
    assert all(np.array_equal(again.arrays[key], run.arrays[key]) for key in run.arrays)
