"""Data and client-segment pin behind ``fixtures/data_parent.json``.

Set-up synthesises a dataset, splits it, partitions it across end-systems
and builds every end-system's client segment.  This pins the *bytes* each of
those steps produces — SHA-256 of images, labels, dtypes, index arrays,
segment weights and layer names — as written by the last commit that
rendered samples one at a time, copied a parent's whole array per child
``Subset`` and built the full CNN for every client segment.  This module is
both the recorder and the test (see ``fixtures/README.md``): run as a script
with *that* commit's ``src`` on ``PYTHONPATH`` it writes the fixture.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List

import numpy as np
import pytest

from repro.core.models import (
    mnist_cnn_architecture,
    paper_cnn_architecture,
    tiny_cnn_architecture,
)
from repro.core.split import SplitSpec
from repro.data.datasets import Dataset, Subset, SyntheticCIFAR10, SyntheticMNIST, train_test_split
from repro.data.partition import get_partitioner
from repro.nn.dtype import default_dtype

GOLDEN = Path(__file__).parent / "fixtures" / "data_parent.json"

#: The benchmark workloads' datasets (``num_samples``, ``image_size``):
#: paper_sync, fanout_async, storm_cluster, server_job — built with the noise
#: levels ``repro.api.runtime.build_workload`` passes.
WORKLOADS = {"paper_sync": (600, 32), "fanout_async": (3200, 8),
             "storm_cluster": (1280, 16), "server_job": (800, 16)}
WORKLOAD_NOISE = {"pixel_noise": 0.15, "deformation_noise": 0.3}

#: Edge configurations: each corruption switched off on its own and all
#: together, and sample counts that are not a multiple of any small block.
EDGES: Dict[str, Dict[str, Any]] = {
    "jitter=0": {"num_samples": 130, "image_size": 8, "jitter": 0},
    "deformation_noise=0": {"num_samples": 130, "image_size": 8, "deformation_noise": 0.0},
    "pixel_noise=0": {"num_samples": 130, "image_size": 8, "pixel_noise": 0.0},
    "all_off": {"num_samples": 130, "image_size": 8, "jitter": 0,
                "deformation_noise": 0.0, "pixel_noise": 0.0},
    "odd_count_large_jitter": {"num_samples": 197, "image_size": 8, "jitter": 5, "seed": 3},
    "fewer_than_a_block": {"num_samples": 37, "image_size": 16, "seed": 11},
    "conftest_tiny": {"num_samples": 160, "image_size": 8, "seed": 7},
}

ARCHITECTURES = {
    "tiny": tiny_cnn_architecture(),
    "conftest_tiny": tiny_cnn_architecture(image_size=8, num_blocks=2, base_filters=4,
                                           dense_units=16),
    "laptop": tiny_cnn_architecture(image_size=16, num_blocks=3, base_filters=8,
                                    dense_units=64),
    "fanout": tiny_cnn_architecture(image_size=8, num_blocks=1, base_filters=2,
                                    dense_units=8),
    "paper": paper_cnn_architecture(),
    "mnist": mnist_cnn_architecture(),
}


def digest(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over each array's dtype, shape and C-order bytes."""
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        hasher.update(f"{array.dtype.str}{array.shape}".encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def dataset_entry(dataset: Dataset) -> Dict[str, str]:
    images, labels = dataset.arrays()
    entry = {"images": digest([images]), "labels": digest([labels]),
             "dtype": str(images.dtype)}
    prototypes = getattr(dataset, "prototypes", None)
    if prototypes is not None:
        entry["prototypes"] = digest([prototypes])
    return entry


def subsets_entry(subsets: List[Subset]) -> Dict[str, Any]:
    arrays = [subset.arrays() for subset in subsets]
    return {
        "sizes": [len(subset) for subset in subsets],
        "indices": digest(subset.indices for subset in subsets),
        "images": digest(images for images, _ in arrays),
        "labels": digest(labels for _, labels in arrays),
    }


def segment_entry(segment: Any) -> Dict[str, str]:
    state = segment.state_dict()
    keys = sorted(state)
    return {"layers": ",".join(segment.layer_names),
            "state": digest([np.asarray(keys), *(state[key] for key in keys)])}


def capture_datasets() -> Dict[str, Any]:
    cells: Dict[str, Any] = {}
    for name, (num_samples, image_size) in WORKLOADS.items():
        cells[f"workload:{name}"] = dataset_entry(SyntheticCIFAR10(
            num_samples=num_samples, image_size=image_size, seed=0, **WORKLOAD_NOISE))
    for name, kwargs in EDGES.items():
        kwargs = dict(kwargs)
        cells[f"edge:{name}"] = dataset_entry(SyntheticCIFAR10(
            num_samples=kwargs.pop("num_samples"), seed=kwargs.pop("seed", 0), **kwargs))
    cells["mnist"] = dataset_entry(SyntheticMNIST(num_samples=300, seed=0))
    cells["mnist_workload_noise"] = dataset_entry(SyntheticMNIST(
        num_samples=150, seed=4, **WORKLOAD_NOISE))
    return cells


def capture_partitions() -> Dict[str, Any]:
    cells: Dict[str, Any] = {}
    dataset = SyntheticCIFAR10(num_samples=400, image_size=8, seed=1, **WORKLOAD_NOISE)
    for stratified in (True, False):
        train, test = train_test_split(dataset, test_fraction=0.2, seed=2,
                                       stratified=stratified)
        cells[f"split:stratified={stratified}"] = subsets_entry([train, test])
    train, _ = train_test_split(dataset, test_fraction=0.2, seed=2)
    for name, kwargs in (("iid", {}), ("dirichlet", {"alpha": 0.5}),
                         ("label_shard", {}), ("quantity_skew", {})):
        parts = get_partitioner(name, 5, seed=3, **kwargs).partition(train)
        cells[f"partition:{name}"] = subsets_entry(parts)
    # A three-deep chain: a reordered, repeating subset of a Dirichlet part of
    # the train split of the dataset.
    part = get_partitioner("dirichlet", 5, seed=3, alpha=0.5).partition(train)[1]
    picks = np.arange(len(part), dtype=np.intp)[::-2]
    chain = Subset(part, np.concatenate([picks, picks[:3]]))
    cells["chain:three_deep"] = subsets_entry([chain])
    cells["chain:three_deep_item"] = digest([chain[4][0], np.asarray(chain[4][1])])
    # The fanout_async shape: 200 IID parts of a 3200-sample train split.
    fanout = SyntheticCIFAR10(num_samples=3200, image_size=8, seed=0, **WORKLOAD_NOISE)
    fanout_train, _ = train_test_split(fanout, test_fraction=0.0625, seed=0)
    cells["partition:fanout_async"] = subsets_entry(
        get_partitioner("iid", 200, seed=0).partition(fanout_train))
    return cells


def capture_segments() -> Dict[str, Any]:
    cells: Dict[str, Any] = {}
    for dtype in (np.float64, np.float32):
        with default_dtype(dtype):
            for name, architecture in ARCHITECTURES.items():
                for cut in range(architecture.num_blocks + 1):
                    spec = SplitSpec(architecture, client_blocks=cut)
                    for seed in (0, 1_234_567):
                        key = f"{np.dtype(dtype).name}:{name}:cut={cut}:seed={seed}"
                        cells[f"client:{key}"] = segment_entry(
                            spec.build_client_segment(seed=seed))
                        cells[f"server:{key}"] = segment_entry(
                            spec.build_server_segment(seed=seed))
    return cells


#: section → (recorder, the key prefixes its cells carry in the golden)
SECTIONS = {
    "datasets": (capture_datasets, ("workload:", "edge:", "mnist")),
    "partitions": (capture_partitions, ("split:", "partition:", "chain:")),
    "segments": (capture_segments, ("client:", "server:")),
}


def capture() -> Dict[str, Any]:
    return {key: value for recorder, _ in SECTIONS.values()
            for key, value in recorder().items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_set_up_bytes_are_identical_to_the_parent(section, golden):
    recorder, prefixes = SECTIONS[section]
    captured = recorder()
    assert sorted(captured) == sorted(key for key in golden if key.startswith(prefixes))
    mismatched = [key for key, value in captured.items() if golden[key] != value]
    assert not mismatched


def test_every_golden_cell_belongs_to_a_section(golden):
    prefixes = tuple(prefix for _, section in SECTIONS.values() for prefix in section)
    assert all(key.startswith(prefixes) for key in golden)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
